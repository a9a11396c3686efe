#include "availsim/fault/injector.hpp"

#include <algorithm>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::fault {

FaultInjector::FaultInjector(sim::Simulator& simulator, FaultTarget& target,
                             sim::Rng rng)
    : sim_(simulator), target_(target), rng_(std::move(rng)) {}

bool FaultInjector::is_active(FaultType type, int component) const {
  return std::find(active_set_.begin(), active_set_.end(),
                   std::make_pair(type, component)) != active_set_.end();
}

void FaultInjector::fire(bool is_repair, FaultType type, int component) {
  // Idempotency: a (type, component) pair is a binary state. Repairing a
  // healthy pair or re-injecting a faulty one is a no-op — nothing is
  // logged and the target hooks do not run (double repairs would
  // otherwise fire spurious reboots and double-log Events).
  if (is_repair != is_active(type, component)) return;
  trace::emit(sim_, trace::Category::kFault,
              is_repair ? trace::Kind::kFaultRepair : trace::Kind::kFaultInject,
              component, static_cast<std::int64_t>(type));
  Event ev{sim_.now(), is_repair, type, component};
  log_.push_back(ev);
  if (is_repair) {
    std::erase(active_set_, std::make_pair(type, component));
    --active_;
    target_.repair(type, component);
  } else {
    active_set_.emplace_back(type, component);
    ++active_;
    target_.inject(type, component);
  }
  if (on_event) on_event(ev);
  if (is_repair && active_ == 0 && !deferred_.empty()) {
    auto next = std::move(deferred_.front());
    deferred_.erase(deferred_.begin());
    sim_.schedule_after(0, std::move(next));
  }
}

void FaultInjector::schedule_fault(sim::Time at, FaultType type, int component,
                                   sim::Time duration) {
  sim_.schedule_at(at, [this, type, component] { fire(false, type, component); });
  sim_.schedule_at(at + duration,
                   [this, type, component] { fire(true, type, component); });
}

void FaultInjector::schedule_fault(sim::Time at, FaultType type,
                                   int component) {
  sim_.schedule_at(at, [this, type, component] { fire(false, type, component); });
}

void FaultInjector::repair_now(FaultType type, int component) {
  fire(true, type, component);
}

void FaultInjector::run_expected_load(const std::vector<FaultSpec>& specs,
                                      bool serialize, sim::Time horizon) {
  for (const auto& spec : specs) {
    for (int c = 0; c < spec.component_count; ++c) {
      arm_component(spec, c, serialize, horizon);
    }
  }
}

void FaultInjector::arm_component(const FaultSpec& spec, int component,
                                  bool serialize, sim::Time horizon) {
  const sim::Time gap = sim::from_seconds(rng_.exponential(spec.mttf_seconds));
  const sim::Time at = sim_.now() + gap;
  if (at >= horizon) return;
  sim_.schedule_at(at, [this, spec, component, serialize, horizon] {
    auto strike = [this, spec, component, serialize, horizon] {
      fire(false, spec.type, component);
      const sim::Time repair_at =
          sim_.now() + sim::from_seconds(spec.mttr_seconds);
      sim_.schedule_at(repair_at, [this, spec, component, serialize, horizon] {
        fire(true, spec.type, component);
        arm_component(spec, component, serialize, horizon);
      });
    };
    if (serialize && active_ > 0) {
      deferred_.emplace_back(std::move(strike));
    } else {
      strike();
    }
  });
}

void FaultInjector::run_correlated_load(const std::vector<FaultSpec>& specs,
                                        CorrelatedLoadOptions options,
                                        sim::Time horizon) {
  if (specs.empty()) return;
  arm_burst(specs, options, horizon);
}

void FaultInjector::arm_burst(const std::vector<FaultSpec>& specs,
                              CorrelatedLoadOptions options,
                              sim::Time horizon) {
  const sim::Time gap =
      sim::from_seconds(rng_.exponential(options.burst_mttf_seconds));
  const sim::Time at = sim_.now() + gap;
  if (at >= horizon) return;
  sim_.schedule_at(at, [this, specs, options, horizon] {
    const auto& spec = specs[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(specs.size()) - 1))];
    int width = options.burst_width > 0
                    ? std::min(options.burst_width, spec.component_count)
                    : spec.component_count;
    // All `width` components fail at the same instant (one sick switch
    // port card, one bad rack PDU) and are repaired together.
    for (int c = 0; c < width; ++c) fire(false, spec.type, c);
    const sim::Time repair_at =
        sim_.now() + sim::from_seconds(spec.mttr_seconds);
    sim_.schedule_at(repair_at, [this, type = spec.type, width] {
      for (int c = 0; c < width; ++c) fire(true, type, c);
    });
    arm_burst(specs, options, horizon);
  });
}

}  // namespace availsim::fault
