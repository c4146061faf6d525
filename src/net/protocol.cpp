#include "net/protocol.hpp"

#include <limits>

#include "field/analytic.hpp"
#include "util/hash.hpp"

namespace dcsn::net {

namespace {

[[nodiscard]] std::uint8_t checked_u8_enum(std::uint8_t v, std::uint8_t max,
                                           const char* what) {
  if (v > max) throw ProtocolError(std::string("out-of-range enum: ") + what);
  return v;
}

template <class Int>
[[nodiscard]] Int checked_int(Int v, Int lo, Int hi, const char* what) {
  if (v < lo || v > hi) throw ProtocolError(std::string("out-of-range value: ") + what);
  return v;
}

/// A real in [lo, hi]; NaN fails both comparisons and is rejected too.
[[nodiscard]] double checked_real(double v, double lo, double hi, const char* what) {
  if (!(v >= lo && v <= hi)) {
    throw ProtocolError(std::string("out-of-range or non-finite value: ") + what);
  }
  return v;
}

[[nodiscard]] double checked_finite(double v, const char* what) {
  return checked_real(v, -std::numeric_limits<double>::max(),
                      std::numeric_limits<double>::max(), what);
}

void encode_rect(WireWriter& w, const field::Rect& r) {
  w.f64(r.x0);
  w.f64(r.y0);
  w.f64(r.x1);
  w.f64(r.y1);
}

[[nodiscard]] field::Rect decode_rect(WireReader& r) {
  field::Rect rect;
  rect.x0 = checked_finite(r.f64(), "rect.x0");
  rect.y0 = checked_finite(r.f64(), "rect.y0");
  rect.x1 = checked_finite(r.f64(), "rect.x1");
  rect.y1 = checked_finite(r.f64(), "rect.y1");
  return rect;
}

void encode_synthesis(WireWriter& w, const core::SynthesisConfig& c) {
  w.i32(c.texture_width);
  w.i32(c.texture_height);
  w.i64(c.spot_count);
  w.f64(c.spot_radius_px);
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.f64(c.ellipse.max_stretch);
  w.i32(c.bent.mesh_cols);
  w.i32(c.bent.mesh_rows);
  w.f64(c.bent.length_px);
  w.i32(c.bent.trace_substeps);
  w.u8(static_cast<std::uint8_t>(c.profile_shape));
  w.i32(c.profile_resolution);
  w.f64(c.intensity_scale);
  w.u8(c.window.has_value() ? 1 : 0);
  if (c.window.has_value()) encode_rect(w, *c.window);
  w.u64(c.seed);
}

[[nodiscard]] core::SynthesisConfig decode_synthesis(WireReader& r) {
  core::SynthesisConfig c;
  c.texture_width = checked_int(r.i32(), 1, kMaxTextureSide, "texture_width");
  c.texture_height = checked_int(r.i32(), 1, kMaxTextureSide, "texture_height");
  c.spot_count = checked_int(r.i64(), std::int64_t{0},
                             std::numeric_limits<std::int64_t>::max(), "spot_count");
  c.spot_radius_px = checked_real(r.f64(), 0.0, kMaxSpotScale, "spot_radius_px");
  c.kind = static_cast<core::SpotKind>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(core::SpotKind::kBent), "SpotKind"));
  c.ellipse.max_stretch = checked_real(r.f64(), 0.0, kMaxSpotScale, "max_stretch");
  c.bent.mesh_cols = checked_int(r.i32(), 2, kMaxMeshSide, "mesh_cols");
  c.bent.mesh_rows = checked_int(r.i32(), 2, kMaxMeshSide, "mesh_rows");
  c.bent.length_px = checked_real(r.f64(), 0.0, kMaxSpotScale, "length_px");
  c.bent.trace_substeps = checked_int(r.i32(), 1, kMaxTraceSubsteps, "trace_substeps");
  c.profile_shape = static_cast<render::SpotShape>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(render::SpotShape::kRing), "SpotShape"));
  c.profile_resolution =
      checked_int(r.i32(), 2, kMaxProfileResolution, "profile_resolution");
  c.intensity_scale = checked_finite(r.f64(), "intensity_scale");
  if (r.u8() != 0) c.window = decode_rect(r);
  c.seed = r.u64();
  return c;
}

void encode_dnc(WireWriter& w, const core::DncConfig& c) {
  w.i32(c.processors);
  w.i32(c.pipes);
  w.i64(c.chunk_spots);
  w.f64(c.bus_bytes_per_second);
  w.f64(c.state_change_seconds);
  w.f64(c.raster_cost_multiplier);
  w.u8(static_cast<std::uint8_t>(c.raster_algorithm));
  w.u32(static_cast<std::uint32_t>(c.pipe_queue_capacity));
  w.u8(c.tiled ? 1 : 0);
  w.u8(c.steal ? 1 : 0);
  w.u8(c.tile_cache ? 1 : 0);
}

[[nodiscard]] core::DncConfig decode_dnc(WireReader& r) {
  core::DncConfig c;
  c.processors = checked_int(r.i32(), 1, kMaxProcessors, "processors");
  c.pipes = checked_int(r.i32(), 1, kMaxPipes, "pipes");
  c.chunk_spots = checked_int(r.i64(), std::int64_t{1}, kMaxChunkSpots, "chunk_spots");
  c.bus_bytes_per_second = checked_real(r.f64(), 0.0,
                                        std::numeric_limits<double>::max(),
                                        "bus_bytes_per_second");
  c.state_change_seconds =
      checked_real(r.f64(), 0.0, kMaxStateChangeSeconds, "state_change_seconds");
  c.raster_cost_multiplier = checked_real(r.f64(), 1.0, kMaxRasterCostMultiplier,
                                          "raster_cost_multiplier");
  c.raster_algorithm = static_cast<render::RasterAlgorithm>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(render::RasterAlgorithm::kReference),
      "RasterAlgorithm"));
  c.pipe_queue_capacity =
      checked_int(r.u32(), 1u, kMaxPipeQueueCapacity, "pipe_queue_capacity");
  c.tiled = r.u8() != 0;
  c.steal = r.u8() != 0;
  c.tile_cache = r.u8() != 0;
  return c;
}

}  // namespace

void FieldSpec::encode(WireWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.f64(a);
  w.f64(b);
  w.f64(c);
  w.f64(d);
  encode_rect(w, domain);
}

FieldSpec FieldSpec::decode(WireReader& r) {
  FieldSpec s;
  s.kind = static_cast<Kind>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(Kind::kDoubleGyre), "FieldSpec::Kind"));
  s.a = checked_finite(r.f64(), "FieldSpec.a");
  s.b = checked_finite(r.f64(), "FieldSpec.b");
  s.c = checked_finite(r.f64(), "FieldSpec.c");
  s.d = checked_finite(r.f64(), "FieldSpec.d");
  s.domain = decode_rect(r);
  return s;
}

std::unique_ptr<field::VectorField> FieldSpec::make_field() const {
  switch (kind) {
    case Kind::kUniform:
      return field::analytic::uniform({a, b}, domain);
    case Kind::kRankineVortex:
      return field::analytic::rankine_vortex({a, b}, c, d, domain);
    case Kind::kTaylorGreen:
      return field::analytic::taylor_green(a, domain);
    case Kind::kDoubleGyre:
      return field::analytic::double_gyre(a, b, c, d);
  }
  throw ProtocolError("unknown field kind");
}

std::vector<std::uint8_t> OpenSessionMsg::encode() const {
  WireWriter w;
  w.u32(version);
  w.i32(priority);
  field.encode(w);
  encode_synthesis(w, synthesis);
  encode_dnc(w, dnc);
  return w.take();
}

OpenSessionMsg OpenSessionMsg::decode(WireReader& r) {
  OpenSessionMsg m;
  m.version = r.u32();
  if (m.version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version");
  }
  m.priority = r.i32();
  m.field = FieldSpec::decode(r);
  m.synthesis = decode_synthesis(r);
  m.dnc = decode_dnc(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> SubmitMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.u8(flags);
  w.f64(deadline_seconds);
  w.u8(policy);
  w.i32(max_retries);
  w.u32(static_cast<std::uint32_t>(spots.size()));
  for (const core::SpotInstance& s : spots) {
    w.f64(s.position.x);
    w.f64(s.position.y);
    w.f64(s.intensity);
  }
  return w.take();
}

SubmitMsg SubmitMsg::decode(WireReader& r) {
  SubmitMsg m;
  m.client_tag = r.u64();
  m.flags = r.u8();
  m.deadline_seconds = r.f64();
  m.policy = checked_u8_enum(r.u8(), 2, "DeadlinePolicy");
  m.max_retries = r.i32();
  const std::uint32_t count = r.u32();
  if (static_cast<std::size_t>(count) * 24 > r.remaining()) {
    throw ProtocolError("spot count exceeds payload");
  }
  m.spots.resize(count);
  for (core::SpotInstance& s : m.spots) {
    s.position.x = r.f64();
    s.position.y = r.f64();
    s.intensity = r.f64();
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> CancelMsg::encode() const {
  WireWriter w;
  w.i64(job_id);
  return w.take();
}

CancelMsg CancelMsg::decode(WireReader& r) {
  CancelMsg m;
  m.job_id = r.i64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> SessionOpenedMsg::encode() const {
  WireWriter w;
  w.i64(session_id);
  w.i32(width);
  w.i32(height);
  return w.take();
}

SessionOpenedMsg SessionOpenedMsg::decode(WireReader& r) {
  SessionOpenedMsg m;
  m.session_id = r.i64();
  m.width = r.i32();
  m.height = r.i32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> SubmitAckMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.i64(job_id);
  return w.take();
}

SubmitAckMsg SubmitAckMsg::decode(WireReader& r) {
  SubmitAckMsg m;
  m.client_tag = r.u64();
  m.job_id = r.i64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> FrameBeginMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.i64(job_id);
  w.u64(content_hash);
  w.i32(width);
  w.i32(height);
  w.u32(tile_count);
  w.u8(flags);
  w.i64(service_seq);
  w.i32(attempts);
  return w.take();
}

FrameBeginMsg FrameBeginMsg::decode(WireReader& r) {
  FrameBeginMsg m;
  m.client_tag = r.u64();
  m.job_id = r.i64();
  m.content_hash = r.u64();
  m.width = r.i32();
  m.height = r.i32();
  m.tile_count = r.u32();
  m.flags = r.u8();
  m.service_seq = r.i64();
  m.attempts = r.i32();
  r.expect_end();
  return m;
}

std::uint64_t tile_payload_hash(std::int32_t x0, std::int32_t y0,
                                std::int32_t width, std::int32_t height,
                                std::span<const float> pixels) {
  const std::int32_t rect[4] = {x0, y0, width, height};
  std::uint64_t h = util::fnv1a(rect, sizeof(rect));
  return util::fnv1a(pixels.data(), pixels.size_bytes(), h);
}

std::vector<std::uint8_t> FrameTileMsg::encode() const {
  WireWriter w;
  w.i32(x0);
  w.i32(y0);
  w.i32(width);
  w.i32(height);
  w.u64(tile_hash);
  for (const float p : pixels) w.f32(p);
  return w.take();
}

FrameTileMsg FrameTileMsg::decode(WireReader& r) {
  FrameTileMsg m;
  m.x0 = r.i32();
  m.y0 = r.i32();
  m.width = r.i32();
  m.height = r.i32();
  m.tile_hash = r.u64();
  if (m.width <= 0 || m.height <= 0) throw ProtocolError("empty tile rect");
  const std::size_t count =
      static_cast<std::size_t>(m.width) * static_cast<std::size_t>(m.height);
  if (count * 4 != r.remaining()) {
    throw ProtocolError("tile pixel payload does not match rect");
  }
  m.pixels.resize(count);
  for (float& p : m.pixels) p = r.f32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> FrameEndMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  return w.take();
}

FrameEndMsg FrameEndMsg::decode(WireReader& r) {
  FrameEndMsg m;
  m.client_tag = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> JobErrorMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.u8(code);
  w.str(message);
  return w.take();
}

JobErrorMsg JobErrorMsg::decode(WireReader& r) {
  JobErrorMsg m;
  m.client_tag = r.u64();
  m.code = r.u8();
  m.message = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> HealthRespMsg::encode() const {
  WireWriter w;
  w.i64(completed);
  w.i64(degraded);
  w.i64(failed);
  w.i64(retries);
  w.i64(timeouts);
  w.i64(canceled);
  w.i64(rejected);
  w.i64(quarantined);
  w.i64(yielded);
  w.i64(breaker_trips);
  w.f64(clock_now);
  w.i32(open_sessions);
  return w.take();
}

HealthRespMsg HealthRespMsg::decode(WireReader& r) {
  HealthRespMsg m;
  m.completed = r.i64();
  m.degraded = r.i64();
  m.failed = r.i64();
  m.retries = r.i64();
  m.timeouts = r.i64();
  m.canceled = r.i64();
  m.rejected = r.i64();
  m.quarantined = r.i64();
  m.yielded = r.i64();
  m.breaker_trips = r.i64();
  m.clock_now = r.f64();
  m.open_sessions = r.i32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> ErrorMsg::encode() const {
  WireWriter w;
  w.str(message);
  return w.take();
}

ErrorMsg ErrorMsg::decode(WireReader& r) {
  ErrorMsg m;
  m.message = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> frame_message(MsgType type,
                                        std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw ProtocolError("message payload exceeds kMaxPayloadBytes");
  }
  WireWriter w;
  w.u32(kMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

}  // namespace dcsn::net
