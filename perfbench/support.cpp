#include "support.hpp"

#include <sys/resource.h>

namespace vs::perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

SimCounts sim_counts(tracking::TrackingNetwork& net) {
  SimCounts c;
  c.events = net.scheduler().events_fired();
  c.messages = net.counters().total_messages();
  c.work = net.counters().total_work();
  for (const auto& [id, f] : net.finds()) {
    const std::uint64_t row[] = {
        static_cast<std::uint64_t>(id.value()),
        static_cast<std::uint64_t>(f.found_region.value()),
        static_cast<std::uint64_t>(f.latency().count()),
        static_cast<std::uint64_t>(f.work),
        static_cast<std::uint64_t>(f.messages)};
    for (const std::uint64_t v : row) {
      c.find_digest = (c.find_digest ^ v) * 0x100000001b3ULL;  // FNV-1a step
    }
  }
  return c;
}

SimCounts& operator+=(SimCounts& a, const SimCounts& b) {
  a.events += b.events;
  a.messages += b.messages;
  a.work += b.work;
  a.find_digest = (a.find_digest ^ b.find_digest) * 0x100000001b3ULL;
  return a;
}

void fill_profile(LayerTable& t, const obs::ProfileReport& rep, double wall_s,
                  Checker& chk) {
  if (static_cast<double>(rep.total_ns) * 1e-9 > wall_s) {
    chk.fail("profiler total exceeds the harness's wall time");
  }
  const auto self_s = [&](obs::ProfDomain d) {
    return static_cast<double>(
               rep.domain_self_ns[static_cast<std::size_t>(d)]) *
           1e-9;
  };
  t.tracking_grow_s = self_s(obs::ProfDomain::kTrackerGrow);
  t.tracking_shrink_s = self_s(obs::ProfDomain::kTrackerShrink);
  t.tracking_timer_s = self_s(obs::ProfDomain::kTrackerTimer);
  t.tracking_find_s = self_s(obs::ProfDomain::kTrackerFind);
  t.vsa_deliver_s = self_s(obs::ProfDomain::kDeliver);
  t.sim_queue_s = self_s(obs::ProfDomain::kQueue);
  t.sim_fire_s = self_s(obs::ProfDomain::kFire);
}

}  // namespace vs::perfbench
