#include "telemetry/profile/profile_export.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "telemetry/file_handle.h"
#include "telemetry/flat_json.h"

namespace ecostore::telemetry::profile {

namespace {

/// Strips a trailing ".profile.jsonl" or ".jsonl" so base paths and
/// capture paths are interchangeable on the command line.
std::string StripCaptureSuffix(const std::string& base) {
  static const char* kSuffixes[] = {".profile.jsonl", ".jsonl"};
  for (const char* suffix : kSuffixes) {
    size_t n = std::strlen(suffix);
    if (base.size() > n && base.compare(base.size() - n, n, suffix) == 0) {
      return base.substr(0, base.size() - n);
    }
  }
  return base;
}

}  // namespace

Phase PhaseFromName(const std::string& name) {
  for (uint16_t p = 0; p < static_cast<uint16_t>(Phase::kCount); ++p) {
    if (name == PhaseName(static_cast<Phase>(p))) {
      return static_cast<Phase>(p);
    }
  }
  return Phase::kNone;
}

Status WriteProfileJsonl(const std::string& path, const ProfileMeta& meta,
                         const std::vector<Span>& spans) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);

  std::string line;
  line = "{\"type\":\"profile_meta\"";
  line += ",\"workload\":\"" + meta.workload + "\"";
  line += ",\"policy\":\"" + meta.policy + "\"";
  AppendKV(&line, "host_cpus", meta.host_cpus);
  AppendKV(&line, "wall_ns", meta.wall_ns);
  AppendKVU(&line, "spans", spans.size());
  line += "}\n";
  std::fputs(line.c_str(), f.get());

  for (const Span& span : spans) {
    line = "{\"type\":\"span\",\"phase\":\"";
    line += PhaseName(static_cast<Phase>(span.phase));
    line += "\"";
    AppendKV(&line, "start_ns", span.start_ns);
    AppendKV(&line, "dur_ns", span.dur_ns);
    AppendKVU(&line, "seq", span.seq);
    AppendKV(&line, "detail", span.detail);
    line += "}\n";
    std::fputs(line.c_str(), f.get());
  }
  return CloseWritten(std::move(f), path);
}

Status ParseProfileJsonl(const std::string& path, ProfileMeta* meta,
                         std::vector<Span>* spans) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  *meta = ProfileMeta{};
  spans->clear();
  bool have_meta = false;
  int64_t declared = -1;
  char buf[1024];
  int line_no = 0;
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    line_no++;
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    FlatJson json(line);
    std::string type = json.Str("type");
    if (type == "profile_meta") {
      meta->workload = json.Str("workload");
      meta->policy = json.Str("policy");
      meta->host_cpus = static_cast<int>(json.Int("host_cpus"));
      meta->wall_ns = json.Int("wall_ns");
      meta->spans = json.U64("spans");
      declared = static_cast<int64_t>(meta->spans);
      have_meta = true;
    } else if (type == "span") {
      if (!have_meta) {
        char err[64];
        std::snprintf(err, sizeof(err), ": line %d: span before meta",
                      line_no);
        return Status::InvalidArgument(path + err);
      }
      Span span;
      span.phase = static_cast<uint16_t>(PhaseFromName(json.Str("phase")));
      span.start_ns = json.Int("start_ns");
      span.dur_ns = json.Int("dur_ns");
      span.seq = static_cast<uint32_t>(json.U64("seq"));
      span.detail = json.Int("detail");
      spans->push_back(span);
    }
    // Unknown "type" values are skipped so the format can grow.
  }
  if (!have_meta) {
    return Status::InvalidArgument(path + ": no profile_meta line found");
  }
  if (declared >= 0 && static_cast<int64_t>(spans->size()) != declared) {
    char err[96];
    std::snprintf(err, sizeof(err),
                  ": declared %lld spans but parsed %lld (truncated?)",
                  static_cast<long long>(declared),
                  static_cast<long long>(spans->size()));
    return Status::InvalidArgument(path + err);
  }
  return Status::OK();
}

Status WriteProfileTrace(const std::string& path, const ProfileMeta& meta,
                         const std::vector<Span>& spans) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  // pid 10: the wall-clock domain, disjoint from the sim-time trace's
  // pids 0-3 so the two files can be concatenated into one Perfetto view.
  // Span seq ids in args correlate with the kPeriodBoundary indices of
  // the sim-time stream.
  std::fprintf(f.get(), "[\n");
  std::fprintf(f.get(),
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":10,"
               "\"args\":{\"name\":\"wall clock (%s / %s)\"}}",
               meta.workload.c_str(), meta.policy.c_str());
  for (const Span& span : spans) {
    std::fprintf(
        f.get(),
        ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":10,\"tid\":0,"
        "\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"seq\":%llu,\"detail\":%lld}}",
        PhaseName(static_cast<Phase>(span.phase)), span.start_ns / 1000.0,
        span.dur_ns / 1000.0, static_cast<unsigned long long>(span.seq),
        static_cast<long long>(span.detail));
  }
  std::fprintf(f.get(), "\n]\n");
  return CloseWritten(std::move(f), path);
}

Status ExportProfile(const std::string& base, const ProfileMeta& meta,
                     const std::vector<Span>& spans) {
  std::string stem = StripCaptureSuffix(base);
  ECOSTORE_RETURN_NOT_OK(
      WriteProfileJsonl(stem + ".profile.jsonl", meta, spans));
  return WriteProfileTrace(stem + ".profile.trace.json", meta, spans);
}

}  // namespace ecostore::telemetry::profile
