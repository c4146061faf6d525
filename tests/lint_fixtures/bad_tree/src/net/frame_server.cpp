// Fixture for scripts/lock_lint.py --self-test: R7 must trip here. Never
// compiled. A served-path source (src/net/) reaching for the paper model.
#include "net/frame_server.hpp"
#include "paper/pipe_synthesizer.hpp"  // R7: the paper model on the served path
#include "render/pipe.hpp"  // R7: an emulated pipe on the served path

namespace dcsn::net {}  // namespace dcsn::net
