#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <latch>
#include <memory>
#include <thread>

#include "core/spot_geometry.hpp"
#include "core/synthesis_service.hpp"
#include "core/tiling.hpp"
#include "net/frame_server.hpp"
#include "net/protocol.hpp"
#include "render/framebuffer.hpp"
#include "socket_run.hpp"

namespace e2e {

namespace core = dcsn::core;
namespace dnet = dcsn::net;

const char* stage_name(Stage stage) {
  switch (stage) {
    case kUpCodec: return "net.up_codec";
    case kResolve: return "service.resolve";
    case kDiff: return "delta.diff";
    case kDownCodec: return "net.down_codec";
    case kClientVerify: return "net.client_verify";
    case kStageCount: break;
  }
  return "?";
}

namespace {

/// What one FrameServer connection holds for its session, plus the
/// client's reassembled framebuffer.
struct Connection {
  core::SynthesisService::SessionId session = 0;
  std::unique_ptr<dcsn::field::VectorField> field;
  std::unique_ptr<core::SpotGeometryGenerator> generator;
  std::vector<core::Tile> wire_tiles;
  std::vector<core::SpotInstance> prev_spots;
  bool baseline_valid = false;
  std::uint64_t next_tag = 1;
  dcsn::render::Framebuffer client_fb;
};

std::vector<std::uint8_t> encode_tile(const dcsn::render::Framebuffer& texture,
                                      const core::Tile& tile,
                                      dcsn::render::Framebuffer& scratch) {
  scratch.reset(tile.width, tile.height);
  texture.extract_rect_into(scratch, tile.x0, tile.y0);
  dnet::FrameTileMsg msg;
  msg.x0 = tile.x0;
  msg.y0 = tile.y0;
  msg.width = tile.width;
  msg.height = tile.height;
  const auto pixels = scratch.pixels();
  const std::span<const float> flat(pixels.data(), scratch.pixel_count());
  msg.tile_hash = dnet::tile_payload_hash(msg.x0, msg.y0, msg.width, msg.height, flat);
  msg.pixels.assign(flat.begin(), flat.end());
  return dnet::frame_message(dnet::MsgType::kFrameTile, msg.encode());
}

dnet::WireReader payload_reader(const std::vector<std::uint8_t>& message) {
  return dnet::WireReader(
      std::span<const std::uint8_t>(message).subspan(dnet::kHeaderBytes));
}

/// One frame through the server's steps, timed per stage. Throws on any
/// engine or protocol failure.
ReplayFrame replay_frame(core::SynthesisService& service, Connection& conn,
                         const Workload& w, int input, std::uint64_t reference) {
  ReplayFrame out;
  out.begin_s[kUpCodec] = now_seconds();
  dnet::SubmitMsg msg;
  msg.client_tag = conn.next_tag++;
  msg.flags = w.incremental ? dnet::SubmitMsg::kFlagIncremental : 0;
  const auto& spots = w.inputs[static_cast<std::size_t>(input)];
  msg.spots.assign(spots.begin(), spots.end());
  const std::vector<std::uint8_t> submit_wire =
      dnet::frame_message(dnet::MsgType::kSubmit, msg.encode());
  dnet::WireReader submit_reader = payload_reader(submit_wire);
  dnet::SubmitMsg decoded = dnet::SubmitMsg::decode(submit_reader);

  out.begin_s[kResolve] = now_seconds();
  core::SynthesisRequest request;
  request.field = conn.field.get();
  request.spots = decoded.spots;
  request.incremental = (decoded.flags & dnet::SubmitMsg::kFlagIncremental) != 0;
  request.capture_texture = true;
  core::SynthesisService::JobTicket ticket =
      service.submit(conn.session, std::move(request));
  core::SynthesisResult result = ticket.result.get();
  out.stats = result.stats;

  out.begin_s[kDiff] = now_seconds();
  std::vector<const core::Tile*> to_send;
  if (!conn.baseline_valid) {
    for (const core::Tile& t : conn.wire_tiles) to_send.push_back(&t);
  } else {
    const core::FrameDelta delta = core::diff_spots(conn.prev_spots, decoded.spots);
    const std::vector<std::uint8_t> dirty = core::dirty_tiles(
        delta, conn.prev_spots, decoded.spots, conn.generator->mapping(),
        conn.generator->max_extent_px(), conn.wire_tiles);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      if (dirty[i] != 0) to_send.push_back(&conn.wire_tiles[i]);
    }
  }

  out.begin_s[kDownCodec] = now_seconds();
  const dcsn::render::Framebuffer& texture = *result.texture;
  std::vector<std::vector<std::uint8_t>> messages;
  messages.reserve(to_send.size() + 2);
  dnet::FrameBeginMsg begin;
  begin.client_tag = msg.client_tag;
  begin.job_id = ticket.id;
  begin.content_hash = result.content_hash;
  begin.width = texture.width();
  begin.height = texture.height();
  begin.tile_count = static_cast<std::uint32_t>(to_send.size());
  begin.flags = conn.baseline_valid ? 0 : dnet::FrameBeginMsg::kFlagFull;
  begin.service_seq = result.service_seq;
  begin.attempts = result.attempts;
  messages.push_back(dnet::frame_message(dnet::MsgType::kFrameBegin, begin.encode()));
  dcsn::render::Framebuffer scratch;
  for (const core::Tile* tile : to_send) {
    messages.push_back(encode_tile(texture, *tile, scratch));
  }
  dnet::FrameEndMsg end;
  end.client_tag = msg.client_tag;
  messages.push_back(dnet::frame_message(dnet::MsgType::kFrameEnd, end.encode()));

  out.begin_s[kClientVerify] = now_seconds();
  dnet::WireReader begin_reader = payload_reader(messages.front());
  const dnet::FrameBeginMsg got = dnet::FrameBeginMsg::decode(begin_reader);
  dcsn::render::Framebuffer tile_fb;
  for (std::size_t i = 1; i + 1 < messages.size(); ++i) {
    dnet::WireReader reader = payload_reader(messages[i]);
    const dnet::FrameTileMsg tile = dnet::FrameTileMsg::decode(reader);
    if (dnet::tile_payload_hash(tile.x0, tile.y0, tile.width, tile.height,
                                tile.pixels) != tile.tile_hash) {
      throw dnet::ProtocolError("tile payload hash mismatch");
    }
    tile_fb.reset(tile.width, tile.height);
    std::copy(tile.pixels.begin(), tile.pixels.end(), tile_fb.pixels().data());
    conn.client_fb.copy_rect_from(tile_fb, tile.x0, tile.y0);
  }
  dnet::WireReader end_reader = payload_reader(messages.back());
  (void)dnet::FrameEndMsg::decode(end_reader);
  const bool intact = conn.client_fb.content_hash() == got.content_hash;
  out.begin_s[kStageCount] = now_seconds();

  out.verified = intact && got.content_hash == reference;
  out.dirty_tiles = static_cast<int>(to_send.size());
  out.wire_tiles = static_cast<int>(conn.wire_tiles.size());
  out.render_tiles = w.dnc.tiled ? w.dnc.pipes : 0;
  conn.prev_spots = std::move(decoded.spots);
  conn.baseline_valid = true;
  return out;
}

}  // namespace

std::vector<ReplayFrame> replay(const Workload& w,
                                const std::vector<std::uint64_t>& reference,
                                int first, int count) {
  core::Runtime runtime;
  core::ServiceConfig config;
  config.drivers = kDrivers;
  core::SynthesisService service(config, runtime);

  std::vector<std::vector<ReplayFrame>> per_client(kClients);
  std::vector<std::exception_ptr> errors(kClients);
  std::latch timed(kClients);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto slot = static_cast<std::size_t>(c);
        Connection conn;
        bool arrived = false;
        try {
          conn.field = w.field.make_field();
          conn.session = service.open_session(w.synthesis, w.dnc);
          conn.generator =
              std::make_unique<core::SpotGeometryGenerator>(w.synthesis, *conn.field);
          conn.wire_tiles = core::make_tile_grid(
              w.synthesis.texture_width, w.synthesis.texture_height,
              dnet::FrameServerOptions{}.wire_tiles);
          conn.client_fb.reset(w.synthesis.texture_width, w.synthesis.texture_height);
          std::vector<int> prefix = w.priming[slot];
          for (int f = 0; f < first; ++f) {
            prefix.push_back(w.order[slot][static_cast<std::size_t>(f)]);
          }
          for (const int input : prefix) {
            ReplayFrame frame = replay_frame(service, conn, w, input,
                                             reference[static_cast<std::size_t>(input)]);
            frame.client = c;
            frame.frame = -1;
            frame.timed = false;
            per_client[slot].push_back(frame);
          }
          timed.arrive_and_wait();
          arrived = true;
          for (int f = first; f < first + count; ++f) {
            const int input = w.order[slot][static_cast<std::size_t>(f)];
            ReplayFrame frame = replay_frame(
                service, conn, w, input, reference[static_cast<std::size_t>(input)]);
            frame.client = c;
            frame.frame = f;
            per_client[slot].push_back(frame);
          }
        } catch (...) {
          errors[slot] = std::current_exception();
          if (!arrived) timed.count_down();
        }
      });
    }
  }
  service.shutdown(/*drain=*/true);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::vector<ReplayFrame> all;
  for (auto& frames : per_client) all.insert(all.end(), frames.begin(), frames.end());
  return all;
}

}  // namespace e2e
