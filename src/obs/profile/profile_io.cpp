#include "obs/profile/profile_io.hpp"

#include <iomanip>
#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace vs::obs {

namespace {

constexpr std::uint8_t kReportTag = 1;
constexpr codec::TagRule kTags[] = {{kReportTag, 0, UINT32_MAX}};
constexpr codec::Format kFormat{{"VSPROF1\0", 8}, kProfileFormatVersion,
                                "VSPROF1", kTags};
/// Encoded sizes of one path, op, and snapshot row.
constexpr std::size_t kPathBytes = sizeof(ProfPath) + 2 * 8;
constexpr std::size_t kOpBytes = sizeof(OpId) + 4 * 8;
constexpr std::size_t kSnapshotBytes = 8 + kProfDomains * 8;

std::string domain_label(std::size_t d) {
  return std::string(to_string(static_cast<ProfDomain>(d)));
}

}  // namespace

void write_profile_file(const std::string& path,
                        const ProfileReport& report) {
  using codec::put;
  std::string buf;
  codec::put_header(buf, kFormat);
  const std::size_t at = codec::begin_frame(buf, kReportTag);
  put(buf, static_cast<std::uint32_t>(kProfDomains));
  put(buf, static_cast<std::uint32_t>(kProfMsgKinds));
  put(buf, static_cast<std::uint32_t>(kProfOpClasses));
  put(buf, report.total_ns);
  put(buf, report.wall_ns);
  put(buf, report.scopes);
  put(buf, report.total_work);
  put(buf, report.total_msgs);
  for (std::size_t d = 0; d < kProfDomains; ++d) {
    put(buf, report.domain_self_ns[d]);
  }
  put(buf, static_cast<std::uint32_t>(report.paths.size()));
  for (const ProfilePathStat& s : report.paths) {
    put(buf, s.path);
    put(buf, s.self_ns);
    put(buf, s.count);
  }
  for (std::size_t k = 0; k < kProfMsgKinds; ++k) {
    put(buf, report.msgs[k].ns);
    put(buf, report.msgs[k].count);
  }
  put(buf, static_cast<std::uint32_t>(report.ops.size()));
  for (const ProfileOpStat& s : report.ops) {
    put(buf, s.op);
    put(buf, s.ns);
    put(buf, s.count);
    put(buf, s.work);
    put(buf, s.msgs);
  }
  put(buf, static_cast<std::uint32_t>(report.snapshots.size()));
  for (const ProfileSnapshotRow& row : report.snapshots) {
    put(buf, row.t_us);
    for (std::size_t d = 0; d < kProfDomains; ++d) {
      put(buf, row.domain_self_ns[d]);
    }
  }
  codec::end_frame(buf, at);
  codec::put_trailer(buf, 1);
  codec::write_file(path, buf);
}

ProfileReport read_profile_file(const std::string& path) {
  ProfileReport r;
  int frames = 0;
  codec::read_file(path, kFormat, [&](std::uint8_t, codec::Reader& in) {
    ++frames;
    const auto domains = in.get<std::uint32_t>();
    const auto kinds = in.get<std::uint32_t>();
    const auto classes = in.get<std::uint32_t>();
    VS_REQUIRE(domains == kProfDomains && kinds == kProfMsgKinds &&
                   classes == kProfOpClasses,
               "profile sidecar " << path
                                  << " was written by an incompatible build");
    r.total_ns = in.get<std::uint64_t>();
    r.wall_ns = in.get<std::uint64_t>();
    r.scopes = in.get<std::uint64_t>();
    r.total_work = in.get<std::int64_t>();
    r.total_msgs = in.get<std::int64_t>();
    for (std::uint64_t& ns : r.domain_self_ns) ns = in.get<std::uint64_t>();
    r.paths.resize(in.get_count(kPathBytes));
    for (ProfilePathStat& s : r.paths) {
      s.path = in.get<ProfPath>();
      s.self_ns = in.get<std::uint64_t>();
      s.count = in.get<std::uint64_t>();
    }
    for (ProfileMsgStat& m : r.msgs) {
      m.ns = in.get<std::uint64_t>();
      m.count = in.get<std::uint64_t>();
    }
    r.ops.resize(in.get_count(kOpBytes));
    for (ProfileOpStat& s : r.ops) {
      s.op = in.get<OpId>();
      s.ns = in.get<std::uint64_t>();
      s.count = in.get<std::uint64_t>();
      s.work = in.get<std::int64_t>();
      s.msgs = in.get<std::int64_t>();
    }
    r.snapshots.resize(in.get_count(kSnapshotBytes));
    for (ProfileSnapshotRow& row : r.snapshots) {
      row.t_us = in.get<std::int64_t>();
      for (std::uint64_t& ns : row.domain_self_ns) {
        ns = in.get<std::uint64_t>();
      }
    }
  });
  VS_REQUIRE(frames == 1, "corrupt profile sidecar " << path << ": "
                                                     << frames
                                                     << " report frames");
  for (const ProfileOpStat& s : r.ops) {
    auto& c = r.classes[static_cast<std::size_t>(op_class(s.op))];
    c.ns += s.ns;
    c.count += s.count;
    c.work += s.work;
    c.msgs += s.msgs;
  }
  return r;
}

void profile_to_json(std::ostream& os, const ProfileReport& r) {
  os << "{\n";
  os << "  \"format\": \"VSPROF1\",\n";
  os << "  \"total_ns\": " << r.total_ns << ",\n";
  os << "  \"wall_ns\": " << r.wall_ns << ",\n";
  os << "  \"scopes\": " << r.scopes << ",\n";
  os << "  \"total_work\": " << r.total_work << ",\n";
  os << "  \"total_msgs\": " << r.total_msgs << ",\n";
  os << "  \"ns_per_work\": " << std::fixed << std::setprecision(2)
     << r.ns_per_work() << ",\n";
  os << "  \"domains\": {";
  for (std::size_t d = 0; d < kProfDomains; ++d) {
    os << (d == 0 ? "" : ", ") << "\"" << domain_label(d)
       << "\": " << r.domain_self_ns[d];
  }
  os << "},\n";
  os << "  \"paths\": [";
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    const ProfilePathStat& s = r.paths[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"stack\": \"";
    const auto doms = prof_path_domains(s.path);
    for (std::size_t j = 0; j < doms.size(); ++j) {
      os << (j == 0 ? "" : ";") << to_string(doms[j]);
    }
    os << "\", \"self_ns\": " << s.self_ns << ", \"count\": " << s.count
       << "}";
  }
  os << (r.paths.empty() ? "" : "\n  ") << "],\n";
  os << "  \"msg_kinds\": {";
  bool first = true;
  for (std::size_t k = 0; k < kProfMsgKinds; ++k) {
    if (r.msgs[k].count == 0) continue;
    os << (first ? "" : ", ") << "\""
       << stats::to_string(static_cast<stats::MsgKind>(k))
       << "\": {\"ns\": " << r.msgs[k].ns << ", \"count\": " << r.msgs[k].count
       << "}";
    first = false;
  }
  os << "},\n";
  os << "  \"op_classes\": {";
  first = true;
  for (std::size_t c = 0; c < kProfOpClasses; ++c) {
    const ProfileClassStat& s = r.classes[c];
    if (s.count == 0) continue;
    os << (first ? "" : ", ") << "\""
       << op_class_name(static_cast<OpClass>(c)) << "\": {\"ns\": " << s.ns
       << ", \"count\": " << s.count << ", \"work\": " << s.work
       << ", \"msgs\": " << s.msgs << "}";
    first = false;
  }
  os << "},\n";
  os << "  \"ops\": [";
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const ProfileOpStat& s = r.ops[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"op\": \"" << op_name(s.op)
       << "\", \"ns\": " << s.ns << ", \"count\": " << s.count
       << ", \"work\": " << s.work << ", \"msgs\": " << s.msgs << "}";
  }
  os << (r.ops.empty() ? "" : "\n  ") << "],\n";
  os << "  \"snapshots\": [";
  for (std::size_t i = 0; i < r.snapshots.size(); ++i) {
    const ProfileSnapshotRow& row = r.snapshots[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"t_us\": " << row.t_us;
    for (std::size_t d = 0; d < kProfDomains; ++d) {
      if (row.domain_self_ns[d] == 0) continue;
      os << ", \"" << domain_label(d) << "\": " << row.domain_self_ns[d];
    }
    os << "}";
  }
  os << (r.snapshots.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  os.unsetf(std::ios::fixed);
}

void profile_to_folded(std::ostream& os, const ProfileReport& r) {
  for (const ProfilePathStat& s : r.paths) {
    if (s.count == 0) continue;
    const auto doms = prof_path_domains(s.path);
    for (std::size_t j = 0; j < doms.size(); ++j) {
      os << (j == 0 ? "" : ";") << to_string(doms[j]);
    }
    os << " " << s.self_ns << "\n";
  }
}

void profile_to_prometheus(std::ostream& os, const ProfileReport& r,
                           const std::string& prefix) {
  os << "# TYPE " << prefix << "_profile_self_ns gauge\n";
  for (std::size_t d = 0; d < kProfDomains; ++d) {
    os << prefix << "_profile_self_ns{domain=\"" << domain_label(d)
       << "\"} " << r.domain_self_ns[d] << "\n";
  }
  os << "# TYPE " << prefix << "_profile_total_ns gauge\n";
  os << prefix << "_profile_total_ns " << r.total_ns << "\n";
  os << "# TYPE " << prefix << "_profile_ns_per_work gauge\n";
  os << prefix << "_profile_ns_per_work " << std::fixed
     << std::setprecision(2) << r.ns_per_work() << "\n";
  os.unsetf(std::ios::fixed);
  os << "# TYPE " << prefix << "_profile_op_class_ns gauge\n";
  for (std::size_t c = 0; c < kProfOpClasses; ++c) {
    const ProfileClassStat& s = r.classes[c];
    if (s.count == 0) continue;
    std::string label(op_class_name(static_cast<OpClass>(c)));
    for (char& ch : label) {
      if (ch == '/') ch = '_';
    }
    os << prefix << "_profile_op_class_ns{class=\"" << label << "\"} "
       << s.ns << "\n";
  }
}

}  // namespace vs::obs
