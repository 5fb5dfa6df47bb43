// Violates exactly one rule: libm-erfc (the platform libm's erfc makes
// model results depend on the platform).
#include <cmath>

double misranking_of(double spread, double rate) { return 0.5 * std::erfc(spread * rate); }
