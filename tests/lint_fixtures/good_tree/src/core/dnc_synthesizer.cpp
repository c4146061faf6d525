// Fixture for scripts/lock_lint.py --self-test: a served-path source that
// R7 must accept — the served engine builds on the runtime and the
// rasterizer, and may name the paper model in comments
// (#include "render/pipe.hpp" stays out of its code). Never compiled.
#include "core/dnc_synthesizer.hpp"
#include "core/runtime.hpp"
#include "render/rasterizer.hpp"

namespace dcsn::core {}  // namespace dcsn::core
