// The socket half of the benchmark: one net::FrameServer driven by
// kClients closed-loop net::FrameClient connections in this process.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "net/frame_client.hpp"
#include "net/frame_server.hpp"
#include "workloads.hpp"

namespace e2e {

/// Seconds on the steady clock since the process-wide benchmark epoch.
[[nodiscard]] double now_seconds();

/// One client frame: submit, await, verify.
struct ClientFrame {
  int client = 0;
  int frame = 0;  ///< index into the client's order
  std::uint64_t client_tag = 0;
  double submit_begin_s = 0.0;  ///< FrameClient::submit called (epoch s)
  double await_begin_s = 0.0;   ///< submit returned (traced runs only)
  double done_s = 0.0;          ///< await_frame returned and verified
  /// The client-side submit/await span boundary was recorded.
  bool traced = false;
  /// A frame arrived and passed the client's own tile and content-hash
  /// checks. False on ServerJobError, ProtocolError or a closed connection.
  bool delivered = false;
  /// Delivered, and its hash equals the independent reference.
  bool verified = false;
  std::uint64_t up_bytes = 0;    ///< submit message, header included
  std::uint64_t down_bytes = 0;  ///< Begin + tiles + End, headers included

  [[nodiscard]] double latency_ms() const {
    return (done_s - submit_begin_s) * 1e3;
  }
};

/// A running server with its clients connected and their set-up frames
/// delivered. Construction is the benchmark's set-up phase.
class Serving {
 public:
  /// Starts a private core::Runtime and a FrameServer on `socket_path`,
  /// connects kClients clients concurrently, and has each deliver its
  /// priming frames and frame 0. `reference[i]` is input i's hash;
  /// `up_bytes[i]` its submit message size. Throws if any set-up frame
  /// fails; counts set-up frames that mismatch the reference.
  Serving(const Workload& workload, const std::vector<std::uint64_t>& reference,
          const std::vector<std::uint64_t>& up_bytes, const std::string& socket_path);
  ~Serving();

  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  /// Server construction until every client's first verified frame.
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }
  /// Set-up frames whose hash differs from the reference.
  [[nodiscard]] int setup_mismatches() const { return setup_mismatches_.load(); }

  /// Runs frames [first, first + count) of every client's order, all
  /// clients concurrently and closed loop. Returns every frame, per client
  /// in order. With `trace`, every other frame also records the
  /// submit/await span boundary.
  std::vector<ClientFrame> run(int first, int count, bool trace);

 private:
  const Workload& workload_;
  const std::vector<std::uint64_t>& reference_;
  const std::vector<std::uint64_t>& up_bytes_;
  std::string socket_path_;
  std::unique_ptr<dcsn::core::Runtime> runtime_;
  std::unique_ptr<dcsn::net::FrameServer> server_;
  std::vector<std::unique_ptr<dcsn::net::FrameClient>> clients_;
  /// A client whose stream broke (ProtocolError, closed connection) fails
  /// every later frame without touching the socket again.
  std::vector<std::uint8_t> broken_;
  std::atomic<int> setup_mismatches_{0};
  double setup_seconds_ = 0.0;
};

}  // namespace e2e
