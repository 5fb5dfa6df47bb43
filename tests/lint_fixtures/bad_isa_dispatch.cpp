// Violates exactly one rule: isa-dispatch (an instruction-set clone
// outside the kernel files, where no test holds it to the baseline's
// bits).
#include <cstddef>

__attribute__((target_clones("avx2", "default"))) void scale_all(double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] *= 2.0;
}
