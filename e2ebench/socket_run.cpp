#include "socket_run.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <latch>
#include <thread>

namespace e2e {

namespace dnet = dcsn::net;

double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

dnet::ClientSubmitOptions submit_options(const Workload& w) {
  dnet::ClientSubmitOptions options;
  options.incremental = w.incremental;
  return options;
}

/// Submits input `input` and waits for its frame. Throws whatever the
/// client throws; checks the frame against the reference otherwise.
ClientFrame round_trip(dnet::FrameClient& client, const Workload& w,
                       const std::vector<std::uint64_t>& reference,
                       const std::vector<std::uint64_t>& up_bytes, int input,
                       bool trace) {
  ClientFrame out;
  out.up_bytes = up_bytes[static_cast<std::size_t>(input)];
  out.submit_begin_s = now_seconds();
  out.client_tag =
      client.submit(w.inputs[static_cast<std::size_t>(input)], submit_options(w));
  // The only client-side span point that latency does not need anyway.
  if (trace) {
    out.await_begin_s = now_seconds();
    out.traced = true;
  }
  const dnet::FrameClient::FrameResult result = client.await_frame();
  out.done_s = now_seconds();
  out.delivered = true;
  out.verified = result.content_hash == reference[static_cast<std::size_t>(input)];
  out.down_bytes = result.wire_bytes;
  return out;
}

}  // namespace

Serving::Serving(const Workload& workload,
                 const std::vector<std::uint64_t>& reference,
                 const std::vector<std::uint64_t>& up_bytes,
                 const std::string& socket_path)
    : workload_(workload),
      reference_(reference),
      up_bytes_(up_bytes),
      socket_path_(socket_path),
      broken_(kClients, 0) {
  const double start = now_seconds();
  runtime_ = std::make_unique<dcsn::core::Runtime>();
  dnet::FrameServerOptions options;
  options.socket_path = socket_path_;
  options.service.drivers = kDrivers;
  server_ = std::make_unique<dnet::FrameServer>(options, *runtime_);

  clients_.resize(kClients);
  std::vector<std::exception_ptr> errors(kClients);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &errors] {
        const auto slot = static_cast<std::size_t>(c);
        try {
          auto client = std::make_unique<dnet::FrameClient>(socket_path_);
          (void)client->open_session(workload_.field, workload_.synthesis,
                                     workload_.dnc);
          std::vector<int> inputs = workload_.priming[slot];
          inputs.push_back(workload_.order[slot][0]);
          for (const int input : inputs) {
            const ClientFrame f =
                round_trip(*client, workload_, reference_, up_bytes_, input, false);
            if (!f.verified) setup_mismatches_.fetch_add(1);
          }
          clients_[slot] = std::move(client);
        } catch (...) {
          errors[slot] = std::current_exception();
        }
      });
    }
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  setup_seconds_ = now_seconds() - start;
}

Serving::~Serving() {
  for (auto& client : clients_) {
    if (!client) continue;
    try {
      client->finish_writes();
    } catch (const std::exception&) {
      // The connection is already gone; stop() below reaps it either way.
    }
  }
  server_->stop();
  clients_.clear();
  server_.reset();
  runtime_.reset();
  std::error_code ignored;
  std::filesystem::remove(socket_path_, ignored);
}

std::vector<ClientFrame> Serving::run(int first, int count, bool trace) {
  std::vector<std::vector<ClientFrame>> per_client(kClients);
  std::latch start(kClients);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, first, count, trace, &per_client, &start] {
        const auto slot = static_cast<std::size_t>(c);
        dnet::FrameClient& client = *clients_[slot];
        std::vector<ClientFrame>& frames = per_client[slot];
        frames.reserve(static_cast<std::size_t>(count));
        start.arrive_and_wait();
        for (int f = first; f < first + count; ++f) {
          const int input = workload_.order[slot][static_cast<std::size_t>(f)];
          ClientFrame frame;
          if (!broken_[slot]) {
            try {
              // Traced frames alternate with untraced ones, so both halves
              // see the same host conditions.
              frame = round_trip(client, workload_, reference_, up_bytes_, input,
                                 trace && f % 2 == 0);
            } catch (const dnet::ServerJobError& e) {
              // The server reported the job failed; the stream is intact.
              std::fprintf(stderr, "client %d frame %d: %s\n", c, f, e.what());
            } catch (const std::exception& e) {
              // ProtocolError or a vanished server: the stream is unusable.
              std::fprintf(stderr, "client %d frame %d: %s\n", c, f, e.what());
              broken_[slot] = 1;
            }
          }
          frame.client = c;
          frame.frame = f;
          if (!frame.delivered) frame.done_s = now_seconds();
          frames.push_back(frame);
        }
      });
    }
  }
  std::vector<ClientFrame> all;
  for (auto& frames : per_client) all.insert(all.end(), frames.begin(), frames.end());
  return all;
}

}  // namespace e2e
