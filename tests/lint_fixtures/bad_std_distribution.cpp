// Fixture: trips exactly [std-distribution], once per distribution family
// (binomial, uniform, exponential).
#include <random>

unsigned long split(std::mt19937_64& engine) {
  std::binomial_distribution<unsigned long> dist(100, 0.5);
  return dist(engine);
}

double place(std::mt19937_64& engine) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::exponential_distribution<double> gap(2.0);
  return unif(engine) + gap(engine);
}
