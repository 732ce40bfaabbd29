#include "src/sim/fault.hpp"

#include <sstream>

#include "src/support/hash.hpp"

namespace tydi::sim {

namespace {

using support::splitmix64;

/// Hash of (seed, shard, site, step) mapped into [0, 1).
double unit_hash(std::uint64_t seed, int shard, std::uint32_t site,
                 std::uint64_t step) {
  std::uint64_t h = splitmix64(seed);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(shard) << 32 | site));
  h = splitmix64(h ^ step);
  return support::unit_interval(h);
}

}  // namespace

FaultPlan FaultPlan::from_seed(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  if (seed == 0) return plan;
  // Each site gets a seed-dependent probability in [0.05, 0.5]: every sweep
  // seed exercises every site, with varying intensity mixes.
  auto p = [&](std::uint32_t site) {
    return 0.05 + 0.45 * unit_hash(seed, /*shard=*/-1, site, /*step=*/0);
  };
  plan.delay_delivery_p = p(1);
  plan.barrier_jitter_p = p(2);
  plan.stall_p = p(3);
  plan.withhold_credit_p = p(4);
  return plan;
}

bool FaultPlan::parse(const std::string& spec, FaultPlan& plan,
                      std::string& error) {
  std::istringstream in(spec);
  std::string field;
  while (std::getline(in, field, ',')) {
    if (field.empty()) continue;
    std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      error = "fault plan field '" + field + "' is not key=value";
      return false;
    }
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    try {
      if (key == "seed") {
        plan.seed = std::stoull(value);
      } else if (key == "delay") {
        plan.delay_delivery_p = std::stod(value);
      } else if (key == "jitter") {
        plan.barrier_jitter_p = std::stod(value);
      } else if (key == "stall") {
        plan.stall_p = std::stod(value);
      } else if (key == "withhold") {
        plan.withhold_credit_p = std::stod(value);
      } else if (key == "spin") {
        plan.delay_spin_iters =
            static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "hang") {
        plan.withhold_acks_forever = value != "0";
      } else {
        error = "unknown fault plan key '" + key + "'";
        return false;
      }
    } catch (const std::exception&) {
      error = "cannot parse fault plan value '" + value + "' for key '" +
              key + "'";
      return false;
    }
  }
  if (plan.seed == 0) plan.seed = 1;  // an explicit plan is always active
  return true;
}

std::string FaultPlan::render() const {
  std::ostringstream out;
  out << "seed=" << seed << ",delay=" << delay_delivery_p
      << ",jitter=" << barrier_jitter_p << ",stall=" << stall_p
      << ",withhold=" << withhold_credit_p << ",spin=" << delay_spin_iters
      << ",hang=" << (withhold_acks_forever ? 1 : 0);
  return out.str();
}

bool FaultInjector::fires(Site site) {
  if (!plan_.enabled()) return false;
  double p = 0.0;
  switch (site) {
    case Site::kMailboxPost: p = plan_.delay_delivery_p; break;
    case Site::kBarrierArrive: p = plan_.barrier_jitter_p; break;
    case Site::kRoundStall: p = plan_.stall_p; break;
    case Site::kWithholdCredit: p = plan_.withhold_credit_p; break;
  }
  if (p <= 0.0) return false;
  std::uint64_t step = steps_[static_cast<std::uint32_t>(site)]++;
  return unit_hash(plan_.seed, shard_, static_cast<std::uint32_t>(site),
                   step) < p;
}

void FaultInjector::spin_delay() const {
  volatile std::uint64_t sink = 0;
  for (std::uint32_t i = 0; i < plan_.delay_spin_iters; ++i) sink = sink + i;
  (void)sink;
}

}  // namespace tydi::sim
