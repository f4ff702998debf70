#include "obs/slo/slo_io.hpp"

#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace vs::obs {

namespace {

constexpr std::uint8_t kReportTag = 1;
constexpr codec::TagRule kTags[] = {{kReportTag, 0, UINT32_MAX}};
constexpr codec::Format kFormat{{"VSSLO1\0\0", 8}, kSloFormatVersion,
                                "VSSLO1", kTags};
/// Encoded sizes of one objective's fixed fields (its name is a string)
/// and of one exemplar.
constexpr std::size_t kObjectiveBytes = 4 + 8 * 8 + 1;
constexpr std::size_t kExemplarBytes = 1 + 4 + 3 * 8;

void put_hist(std::string& buf, const Histogram& h) {
  codec::put(buf, static_cast<std::uint32_t>(h.bounds().size()));
  for (std::int64_t b : h.bounds()) codec::put(buf, b);
  for (std::int64_t c : h.buckets()) codec::put(buf, c);
  codec::put(buf, h.count());
  codec::put(buf, h.sum());
  codec::put(buf, h.min());
  codec::put(buf, h.max());
}

Histogram get_hist(codec::Reader& r) {
  // Each bound pairs with one bucket; the +inf bucket follows them.
  std::vector<std::int64_t> bounds(r.get_count(2 * sizeof(std::int64_t)));
  r.get_array(bounds.data(), bounds.size());
  std::vector<std::int64_t> buckets(bounds.size() + 1);
  r.get_array(buckets.data(), buckets.size());
  const auto count = r.get<std::int64_t>();
  const auto sum = r.get<std::int64_t>();
  const auto min = r.get<std::int64_t>();
  const auto max = r.get<std::int64_t>();
  return Histogram::from_parts(std::move(bounds), std::move(buckets), count,
                               sum, min, max);
}

void json_hist(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.count() << ", \"sum\": " << h.sum()
     << ", \"min\": " << h.min() << ", \"max\": " << h.max()
     << ", \"p50\": " << h.percentile(0.50) << ", \"p90\": "
     << h.percentile(0.90) << ", \"p99\": " << h.percentile(0.99)
     << ", \"p999\": " << h.percentile(0.999) << "}";
}

/// The spec's objective name, quoted for a Prometheus label value.
std::string label_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void write_slo_file(const std::string& path, const SloReport& rep) {
  using codec::put;
  using codec::put_str;
  std::string buf;
  codec::put_header(buf, kFormat);
  const std::size_t at = codec::begin_frame(buf, kReportTag);
  put_str(buf, rep.spec_text);
  put(buf, static_cast<std::uint8_t>(rep.wall_clock ? 1 : 0));
  put(buf, rep.end_t_us);
  for (const SloReport::ClassStats& c : rep.classes) {
    put(buf, c.requests);
    put(buf, c.errors);
    put_hist(buf, c.latency);
  }
  put_hist(buf, rep.find_ns_per_d);
  put(buf, static_cast<std::uint32_t>(rep.find_bands.size()));
  for (const auto& [band, hist] : rep.find_bands) {
    put(buf, band);
    put_hist(buf, hist);
  }
  put(buf, static_cast<std::uint32_t>(rep.objectives.size()));
  for (const SloObjectiveState& o : rep.objectives) {
    put_str(buf, o.name);
    put(buf, o.short_req);
    put(buf, o.short_bad);
    put(buf, o.long_req);
    put(buf, o.long_bad);
    put(buf, o.burn_short_centi);
    put(buf, o.burn_long_centi);
    put(buf, o.measured_ns);
    put(buf, o.target_ns);
    put(buf, static_cast<std::uint8_t>(o.fired ? 1 : 0));
  }
  put(buf, static_cast<std::uint32_t>(rep.exemplars.size()));
  for (const SloExemplar& e : rep.exemplars) {
    put(buf, e.cls);
    put(buf, e.op);
    put(buf, e.t_us);
    put(buf, e.latency_ns);
    put(buf, e.distance);
  }
  codec::end_frame(buf, at);
  codec::put_trailer(buf, 1);
  codec::write_file(path, buf);
}

SloReport read_slo_file(const std::string& path) {
  SloReport rep;
  int frames = 0;
  codec::read_file(path, kFormat, [&](std::uint8_t, codec::Reader& r) {
    ++frames;
    rep.spec_text = r.get_str();
    rep.wall_clock = r.get<std::uint8_t>() != 0;
    rep.end_t_us = r.get<std::int64_t>();
    for (SloReport::ClassStats& c : rep.classes) {
      c.requests = r.get<std::int64_t>();
      c.errors = r.get<std::int64_t>();
      c.latency = get_hist(r);
    }
    rep.find_ns_per_d = get_hist(r);
    rep.find_bands.resize(r.get_count(sizeof(std::uint32_t)));
    for (auto& [band, hist] : rep.find_bands) {
      band = r.get<std::uint32_t>();
      hist = get_hist(r);
    }
    rep.objectives.resize(r.get_count(kObjectiveBytes));
    for (SloObjectiveState& o : rep.objectives) {
      o.name = r.get_str();
      o.short_req = r.get<std::int64_t>();
      o.short_bad = r.get<std::int64_t>();
      o.long_req = r.get<std::int64_t>();
      o.long_bad = r.get<std::int64_t>();
      o.burn_short_centi = r.get<std::int64_t>();
      o.burn_long_centi = r.get<std::int64_t>();
      o.measured_ns = r.get<std::int64_t>();
      o.target_ns = r.get<std::int64_t>();
      o.fired = r.get<std::uint8_t>() != 0;
    }
    rep.exemplars.resize(r.get_count(kExemplarBytes));
    for (SloExemplar& e : rep.exemplars) {
      e.cls = r.get<std::uint8_t>();
      e.op = r.get<std::uint32_t>();
      e.t_us = r.get<std::int64_t>();
      e.latency_ns = r.get<std::int64_t>();
      e.distance = r.get<std::int64_t>();
    }
  });
  VS_REQUIRE(frames == 1, "corrupt slo sidecar " << path << ": " << frames
                                                 << " report frames");
  return rep;
}

void slo_to_json(std::ostream& os, const SloReport& rep) {
  os << "{\n  \"spec\": \"" << label_escape(rep.spec_text) << "\",\n"
     << "  \"clock\": \"" << (rep.wall_clock ? "wall" : "virtual") << "\",\n"
     << "  \"t_us\": " << rep.end_t_us << ",\n  \"classes\": {";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    if (c > 0) os << ",";
    const SloReport::ClassStats& st = rep.classes[c];
    os << "\n    \"" << to_string(static_cast<SloClass>(c))
       << "\": {\"requests\": " << st.requests << ", \"errors\": " << st.errors
       << ", \"latency_ns\": ";
    json_hist(os, st.latency);
    os << "}";
  }
  os << "\n  },\n  \"find_ns_per_d\": ";
  json_hist(os, rep.find_ns_per_d);
  os << ",\n  \"find_bands\": [";
  for (std::size_t i = 0; i < rep.find_bands.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"band\": \"" << slo_band_label(rep.find_bands[i].first)
       << "\", \"latency_ns\": ";
    json_hist(os, rep.find_bands[i].second);
    os << "}";
  }
  os << "],\n  \"objectives\": [";
  for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
    const SloObjectiveState& o = rep.objectives[i];
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << label_escape(o.name)
       << "\", \"measured_ns\": " << o.measured_ns
       << ", \"target_ns\": " << o.target_ns
       << ", \"burn_short_centi\": " << o.burn_short_centi
       << ", \"burn_long_centi\": " << o.burn_long_centi
       << ", \"budget_remaining_milli\": " << rep.budget_remaining_milli(i)
       << ", \"fired\": " << (o.fired ? "true" : "false") << "}";
  }
  os << "],\n  \"exemplars\": [";
  for (std::size_t i = 0; i < rep.exemplars.size(); ++i) {
    const SloExemplar& e = rep.exemplars[i];
    if (i > 0) os << ", ";
    os << "{\"class\": \"" << to_string(static_cast<SloClass>(e.cls))
       << "\", \"op\": \"" << op_name(e.op) << "\", \"t_us\": " << e.t_us
       << ", \"latency_ns\": " << e.latency_ns
       << ", \"distance\": " << e.distance << "}";
  }
  os << "]\n}\n";
}

void slo_to_prometheus(std::ostream& os, const SloReport& rep,
                       const std::string& prefix) {
  os << "# TYPE " << prefix << "_slo_requests_total counter\n";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    os << prefix << "_slo_requests_total{class=\""
       << to_string(static_cast<SloClass>(c))
       << "\"} " << rep.classes[c].requests << "\n";
  }
  os << "# TYPE " << prefix << "_slo_errors_total counter\n";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    os << prefix << "_slo_errors_total{class=\""
       << to_string(static_cast<SloClass>(c))
       << "\"} " << rep.classes[c].errors << "\n";
  }
  os << "# TYPE " << prefix << "_slo_latency_ns gauge\n";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    const Histogram& h = rep.classes[c].latency;
    if (h.count() == 0) continue;
    const char* name = to_string(static_cast<SloClass>(c));
    os << prefix << "_slo_latency_ns{class=\"" << name
       << "\",quantile=\"0.5\"} " << h.percentile(0.50) << "\n";
    os << prefix << "_slo_latency_ns{class=\"" << name
       << "\",quantile=\"0.99\"} " << h.percentile(0.99) << "\n";
  }
  if (rep.find_ns_per_d.count() > 0) {
    os << "# TYPE " << prefix << "_slo_find_ns_per_d gauge\n";
    os << prefix << "_slo_find_ns_per_d{quantile=\"0.99\"} "
       << rep.find_ns_per_d.percentile(0.99) << "\n";
  }
  if (!rep.objectives.empty()) {
    os << "# TYPE " << prefix << "_slo_burn_rate_centi gauge\n";
    for (const SloObjectiveState& o : rep.objectives) {
      os << prefix << "_slo_burn_rate_centi{objective=\""
         << label_escape(o.name) << "\",window=\"short\"} "
         << o.burn_short_centi << "\n";
      os << prefix << "_slo_burn_rate_centi{objective=\""
         << label_escape(o.name) << "\",window=\"long\"} "
         << o.burn_long_centi << "\n";
    }
    os << "# TYPE " << prefix << "_slo_error_budget_remaining_milli gauge\n";
    for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
      os << prefix << "_slo_error_budget_remaining_milli{objective=\""
         << label_escape(rep.objectives[i].name) << "\"} "
         << rep.budget_remaining_milli(i) << "\n";
    }
    os << "# TYPE " << prefix << "_slo_objective_fired gauge\n";
    for (const SloObjectiveState& o : rep.objectives) {
      os << prefix << "_slo_objective_fired{objective=\""
         << label_escape(o.name) << "\"} " << (o.fired ? 1 : 0) << "\n";
    }
  }
}

void slo_to_csv(std::ostream& os, const SloReport& rep) {
  os << "series,le_ns,count\n";
  const auto rows = [&os](const std::string& series, const Histogram& h) {
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      os << series << ",";
      if (i < h.bounds().size()) {
        os << h.bounds()[i];
      } else {
        os << "+inf";
      }
      os << "," << h.buckets()[i] << "\n";
    }
  };
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    if (rep.classes[c].latency.count() == 0) continue;
    rows(to_string(static_cast<SloClass>(c)), rep.classes[c].latency);
  }
  if (rep.find_ns_per_d.count() > 0) rows("find_ns_per_d", rep.find_ns_per_d);
  for (const auto& [band, hist] : rep.find_bands) {
    rows("find:" + slo_band_label(band), hist);
  }
}

}  // namespace vs::obs
