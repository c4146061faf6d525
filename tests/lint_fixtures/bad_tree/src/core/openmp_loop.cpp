// Fixture for scripts/lock_lint.py --self-test: R6 must trip here. Never
// compiled. A comment that names #pragma omp is fine; the directives below
// are not.
#include <omp.h>  // R6: the OpenMP runtime header

namespace dcsn::core {

void scale(float* px, int n, float s) {
#pragma omp parallel for  // R6: a second thread pool beside core::Runtime
  for (int i = 0; i < n; ++i) px[i] *= s;
}

}  // namespace dcsn::core
