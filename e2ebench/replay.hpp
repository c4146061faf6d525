// Per-frame layer replay: the benchmark calls, itself and in the server's
// order, the public functions a FrameServer connection runs for one frame,
// and times each one. The socket run cannot see inside the server; the
// replay can, and the part of the socket latency it does not account for
// is reported as net.residual_ms.
//
// Stages, per frame and client (kClients threads, one shared
// SynthesisService with kDrivers drivers, as in the server):
//   1. up_codec      SubmitMsg encode + framing + decode
//   2. resolve       SynthesisService::submit and result.get(); the returned
//                    FrameStats splits it into queue wait and engine time
//   3. diff          core::diff_spots + core::dirty_tiles on the wire grid
//   4. down_codec    frame Begin/Tile/End encode, tile_payload_hash included
//   5. client_verify tile decode, tile hash, reassembly and content_hash
#pragma once

#include <cstdint>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "workloads.hpp"

namespace e2e {

enum Stage { kUpCodec, kResolve, kDiff, kDownCodec, kClientVerify, kStageCount };

[[nodiscard]] const char* stage_name(Stage stage);

struct ReplayFrame {
  int client = 0;
  int frame = 0;
  /// Stage s ran over [begin_s[s], begin_s[s + 1]) (epoch seconds).
  double begin_s[kStageCount + 1] = {};
  dcsn::core::FrameStats stats;
  int dirty_tiles = 0;  ///< wire tiles this frame transmits
  int wire_tiles = 0;   ///< tiles of the wire grid
  int render_tiles = 0;  ///< engine tiles (tiled mode), else 0
  /// The reassembled frame hashes to the independent reference.
  bool verified = false;
  /// False for the untimed prefix (priming and frames before `first`).
  bool timed = true;

  [[nodiscard]] double stage_ms(Stage stage) const {
    return (begin_s[stage + 1] - begin_s[stage]) * 1e3;
  }
};

/// Replays frames [first, first + count) of every client's order after an
/// untimed prefix (priming and frames [0, first)) that puts the service,
/// its caches and the delta baselines into the state the socket run had.
/// Returns the prefix frames too, flagged `timed = false` and `frame = -1`.
[[nodiscard]] std::vector<ReplayFrame> replay(
    const Workload& workload, const std::vector<std::uint64_t>& reference,
    int first, int count);

}  // namespace e2e
