#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/file_handle.h"
#include "telemetry/flat_json.h"

namespace ecostore::telemetry {

namespace {

template <typename S, typename Fields>
void AppendFields(std::string* out, const S& record, const Fields& fields) {
  for (const RecordField<S>& f : fields) {
    VisitField(record, f.member,
               [&](auto value) { AppendField(out, f.key, value); });
  }
}

void AppendEventJson(std::string* out, const Event& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"type\":\"event\",\"t\":%lld,\"kind\":\"%s\"",
                static_cast<long long>(e.time), EventKindName(e.kind));
  *out += buf;
  VisitPayload(e.kind, [&](const auto& layout) {
    AppendFields(out, e.*layout.member, layout.fields);
  });
  *out += "}\n";
}

/// Parses the payload of one event line into `*out`. A missing key reads
/// as 0. Enclosure ids are range-checked before they are narrowed to
/// EnclosureId: each must be kInvalidEnclosure or name one of the meta's
/// `num_enclosures` enclosures.
Status EventFromJson(const FlatJson& json, EventKind kind, int num_enclosures,
                     Event* out) {
  Event e = MakeEvent(json.Int("t"), kind);
  Status status;
  VisitPayload(kind, [&](const auto& layout) {
    std::remove_cvref_t<decltype(e.*layout.member)> payload;
    for (const auto& f : layout.fields) {
      VisitField(payload, f.member, [&](auto& value) {
        using T = std::remove_reference_t<decltype(value)>;
        if (!f.enclosure_id) {
          value = json.Get<T>(f.key);
          return;
        }
        const int64_t id = json.Int(f.key);
        const bool valid = id >= kInvalidEnclosure && id < num_enclosures;
        if (!valid && status.ok()) {
          status = Status::InvalidArgument(
              std::string(f.key) + " " + std::to_string(id) +
              " outside [-1, " + std::to_string(num_enclosures) + ")");
        }
        value = static_cast<T>(valid ? id : kInvalidEnclosure);
      });
    }
    e.*layout.member = payload;
  });
  *out = e;
  return status;
}

}  // namespace

const char* PowerSegmentStateName(uint8_t state) {
  switch (state) {
    case 0:
      return "off";
    case 1:
      return "spinning_up";
    case 2:
      return "on";
  }
  return "?";
}

Status WriteJsonl(const std::string& path, const ExportMeta& meta,
                  const std::vector<Event>& events) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::string head;
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"meta\",\"workload\":\"%s\",\"policy\":\"%s\","
                  "\"num_enclosures\":%d,\"duration_us\":%lld",
                  meta.workload.c_str(), meta.policy.c_str(),
                  meta.num_enclosures, static_cast<long long>(meta.duration));
    head += buf;
  }
  if (meta.has_power_model) {
    AppendKV(&head, "has_power_model", 1);
    AppendFields(&head, meta, kPowerModelFields);
  }
  AppendKV(&head, "events", static_cast<int64_t>(events.size()));
  head += "}\n";
  std::fwrite(head.data(), 1, head.size(), f.get());
  std::string line;
  for (const LatencySlot& slot : meta.latency) {
    if (slot.hist.count() == 0) continue;
    line.clear();
    line += "{\"type\":\"latency\"";
    AppendKV(&line, "pattern", slot.pattern);
    AppendKV(&line, "outcome", slot.outcome);
    AppendKV(&line, "count", slot.hist.count());
    AppendKV(&line, "sum_us", slot.hist.sum());
    AppendKV(&line, "max_us", slot.hist.max());
    line += ",\"buckets\":\"" + slot.hist.EncodeBuckets() + "\"}\n";
    std::fwrite(line.data(), 1, line.size(), f.get());
  }
  for (const Event& e : events) {
    line.clear();
    AppendEventJson(&line, e);
    std::fwrite(line.data(), 1, line.size(), f.get());
  }
  return CloseWritten(std::move(f), path);
}

namespace {

/// Reads one '\n'-terminated line of arbitrary length (the latency lines
/// carry bucket strings that can exceed any fixed buffer). Returns false
/// on EOF with nothing read.
bool ReadLine(std::FILE* f, std::string* line) {
  line->clear();
  char buf[1024];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    *line += buf;
    if (!line->empty() && line->back() == '\n') return true;
  }
  return !line->empty();
}

Status LineError(const std::string& path, long lineno, const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ":%ld: ", lineno);
  return Status::InvalidArgument(path + buf + what);
}

}  // namespace

Status CaptureTailParser::Consume(const std::string& raw) {
  // Defensive trim: ReadJsonlChunk and ParseJsonl both strip the line
  // terminator, but a caller feeding raw lines should still work.
  const std::string* linep = &raw;
  std::string trimmed;
  if (!raw.empty() && (raw.back() == '\n' || raw.back() == '\r')) {
    trimmed = raw;
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    linep = &trimmed;
  }
  const std::string& line = *linep;
  if (line.empty()) return Status::OK();
  if (line.front() != '{') {
    return Status::InvalidArgument("line is not a JSON object");
  }
  if (line.back() != '}') {
    return Status::InvalidArgument("unterminated JSON object (truncated?)");
  }
  FlatJson json{line};
  std::string type = json.Str("type");
  if (type.empty()) {
    return Status::InvalidArgument("missing \"type\" field");
  }
  if (type == "meta") {
    have_meta_ = true;
    if (json.Has("events")) declared_events_ = json.Int("events");
    meta_.workload = json.Str("workload");
    meta_.policy = json.Str("policy");
    const int64_t num_enclosures = json.Int("num_enclosures");
    if (num_enclosures < 0 ||
        num_enclosures > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("num_enclosures " +
                                     std::to_string(num_enclosures) +
                                     " outside [0, 2^31)");
    }
    meta_.num_enclosures = static_cast<int>(num_enclosures);
    meta_.duration = json.Int("duration_us");
    meta_.has_power_model = json.Int("has_power_model") != 0;
    if (meta_.has_power_model) {
      for (const RecordField<ExportMeta>& f : kPowerModelFields) {
        json.Read(f.key, f.member, &meta_);
      }
    }
    return Status::OK();
  }
  if (type == "latency") {
    LatencySlot slot;
    slot.pattern = static_cast<uint8_t>(json.Int("pattern"));
    slot.outcome = static_cast<uint8_t>(json.Int("outcome"));
    slot.hist.DecodeBuckets(json.Str("buckets"), json.Int("sum_us"),
                            json.Int("max_us"));
    if (slot.hist.count() != json.Int("count")) {
      return Status::InvalidArgument(
          "latency bucket counts disagree with \"count\"");
    }
    meta_.latency.push_back(std::move(slot));
    return Status::OK();
  }
  if (type == "event") {
    EventKind kind = EventKindFromName(json.Str("kind"));
    if (kind == EventKind::kNone) {
      return Status::InvalidArgument("unknown event kind");
    }
    Event event;
    ECOSTORE_RETURN_NOT_OK(
        EventFromJson(json, kind, meta_.num_enclosures, &event));
    events_.push_back(event);
    consumed_events_++;
    return Status::OK();
  }
  // Unknown "type" values are skipped so the format can grow.
  return Status::OK();
}

std::vector<Event> CaptureTailParser::TakeEvents() {
  std::vector<Event> out = std::move(events_);
  events_.clear();
  return out;
}

Status ReadJsonlChunk(const std::string& path, int64_t offset,
                      JsonlChunk* chunk) {
  chunk->lines.clear();
  chunk->next_offset = offset;
  chunk->partial_tail = false;
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  if (offset > 0 &&
      std::fseek(f.get(), static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError("cannot seek in " + path);
  }
  std::string pending;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    size_t start = 0;
    for (size_t i = 0; i < n; ++i) {
      if (buf[i] != '\n') continue;
      pending.append(buf + start, i - start);
      start = i + 1;
      // Consume the line's bytes (incl. the '\n') BEFORE stripping CR.
      chunk->next_offset += static_cast<int64_t>(pending.size()) + 1;
      while (!pending.empty() && pending.back() == '\r') pending.pop_back();
      if (!pending.empty()) chunk->lines.push_back(std::move(pending));
      pending.clear();
    }
    pending.append(buf + start, n - start);
  }
  // Unterminated trailing bytes: a writer mid-append. Leave them unread —
  // the caller resumes at next_offset once the writer finishes the line.
  chunk->partial_tail = !pending.empty();
  return Status::OK();
}

Status ParseJsonl(const std::string& path, ExportMeta* meta,
                  std::vector<Event>* events) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  events->clear();
  CaptureTailParser parser;
  std::string line;
  long lineno = 0;
  while (ReadLine(f.get(), &line)) {
    lineno++;
    // Strip trailing newline / CR so structural checks see the payload.
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    Status st = parser.Consume(line);
    if (!st.ok()) return LineError(path, lineno, st.message().c_str());
  }
  if (!parser.have_meta()) {
    return Status::InvalidArgument(path + ": no meta line found");
  }
  *events = parser.TakeEvents();
  if (meta != nullptr) *meta = parser.meta();
  if (parser.declared_events() >= 0 &&
      parser.declared_events() != static_cast<int64_t>(events->size())) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ": meta declares %lld events but %zu parsed (truncated?)",
                  static_cast<long long>(parser.declared_events()),
                  events->size());
    return Status::InvalidArgument(path + buf);
  }
  return Status::OK();
}

std::vector<PowerSegment> BuildPowerTimeline(
    const ExportMeta& meta, const std::vector<Event>& events) {
  const int n = std::max(meta.num_enclosures, 0);
  std::vector<PowerSegment> segments;
  // Every enclosure starts On at t = 0 (the array boots powered up).
  std::vector<SimTime> seg_start(static_cast<size_t>(n), 0);
  std::vector<uint8_t> state(static_cast<size_t>(n), 2);
  auto close = [&](size_t enc, SimTime at, uint8_t next_state) {
    if (at > seg_start[enc]) {
      segments.push_back(PowerSegment{static_cast<EnclosureId>(enc),
                                      seg_start[enc], at, state[enc]});
    }
    seg_start[enc] = at;
    state[enc] = next_state;
  };
  for (const Event& e : events) {
    if (e.kind != EventKind::kPowerState) continue;
    if (e.power.enclosure < 0 || e.power.enclosure >= n) continue;
    auto enc = static_cast<size_t>(e.power.enclosure);
    if (e.power.state == 1) {
      // Spin-up initiation; the On edge follows after the configured
      // spin-up latency carried in the payload.
      close(enc, e.time, 1);
      close(enc, e.time + e.power.spinup_us, 2);
    } else {
      close(enc, e.time, e.power.state);
    }
  }
  for (size_t enc = 0; enc < static_cast<size_t>(n); ++enc) {
    SimTime end = std::max(meta.duration, seg_start[enc]);
    if (end > seg_start[enc]) {
      segments.push_back(PowerSegment{static_cast<EnclosureId>(enc),
                                      seg_start[enc], end, state[enc]});
    }
  }
  std::stable_sort(segments.begin(), segments.end(),
                   [](const PowerSegment& a, const PowerSegment& b) {
                     if (a.enclosure != b.enclosure) {
                       return a.enclosure < b.enclosure;
                     }
                     return a.start < b.start;
                   });
  return segments;
}

Status WritePowerTimelineCsv(const std::string& path, const ExportMeta& meta,
                             const std::vector<Event>& events) {
  std::vector<PowerSegment> segments = BuildPowerTimeline(meta, events);
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f.get(), "enclosure,state,start_us,end_us,duration_s\n");
  for (const PowerSegment& s : segments) {
    std::fprintf(f.get(), "%d,%s,%lld,%lld,%.3f\n", s.enclosure,
                 PowerSegmentStateName(s.state),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end), ToSeconds(s.end - s.start));
  }
  return CloseWritten(std::move(f), path);
}

Status WriteChromeTrace(const std::string& path, const ExportMeta& meta,
                        const std::vector<Event>& events) {
  // One trace entry per line; entries are sorted by ts so viewers (and
  // the round-trip test) see a monotone stream. pid 0 = power states,
  // pid 1 = policy decisions/migrations, pid 2 = simulator counters,
  // pid 3 = energy-ledger counters (cumulative off-window credit/debit
  // per enclosure and the running mispredict count).
  struct Entry {
    SimTime ts;
    std::string json;
  };
  std::vector<Entry> entries;
  char buf[256];

  for (const PowerSegment& s : BuildPowerTimeline(meta, events)) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"power\",\"ph\":\"X\","
                  "\"ts\":%lld,\"dur\":%lld,\"pid\":0,\"tid\":%d}",
                  PowerSegmentStateName(s.state),
                  static_cast<long long>(s.start),
                  static_cast<long long>(s.end - s.start), s.enclosure);
    entries.push_back(Entry{s.start, buf});
  }
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kDecision:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"item %d P%u\",\"cat\":\"decision\","
                      "\"ph\":\"i\",\"ts\":%lld,\"pid\":1,\"tid\":0,"
                      "\"s\":\"p\"}",
                      e.decision.item, e.decision.pattern,
                      static_cast<long long>(e.time));
        entries.push_back(Entry{e.time, buf});
        break;
      case EventKind::kMigrationBegin:
      case EventKind::kMigrationThrottle:
      case EventKind::kMigrationEnd:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s item %d\",\"cat\":\"migration\","
                      "\"ph\":\"i\",\"ts\":%lld,\"pid\":1,\"tid\":1,"
                      "\"s\":\"p\"}",
                      EventKindName(e.kind), e.migration.item,
                      static_cast<long long>(e.time));
        entries.push_back(Entry{e.time, buf});
        break;
      case EventKind::kSimStats:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"sim heap\",\"ph\":\"C\",\"ts\":%lld,"
                      "\"pid\":2,\"args\":{\"live\":%lld,"
                      "\"tombstones\":%lld}}",
                      static_cast<long long>(e.time),
                      static_cast<long long>(e.sim_stats.live_events),
                      static_cast<long long>(e.sim_stats.tombstones));
        entries.push_back(Entry{e.time, buf});
        break;
      default:
        break;
    }
  }

  // Counter tracks from the energy ledger: one track per enclosure with
  // the cumulative off-window credit/debit, plus a global mispredict
  // count, each stepping at the instant the window closes.
  if (meta.has_power_model) {
    analysis::EnergyLedger ledger = analysis::BuildLedger(meta, events);
    std::map<EnclosureId, std::pair<double, double>> cum;
    int64_t mispredicts = 0;
    for (const analysis::OffWindow& w : ledger.off_windows) {
      auto& c = cum[w.enclosure];
      c.first += w.credit_j;
      c.second += w.debit_j;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"ledger enc %d\",\"ph\":\"C\",\"ts\":%lld,"
                    "\"pid\":3,\"args\":{\"credit_j\":%.3f,"
                    "\"debit_j\":%.3f}}",
                    w.enclosure, static_cast<long long>(w.end), c.first,
                    c.second);
      entries.push_back(Entry{w.end, buf});
      if (w.mispredict) {
        mispredicts++;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"ledger mispredicts\",\"ph\":\"C\","
                      "\"ts\":%lld,\"pid\":3,\"args\":{\"count\":%lld}}",
                      static_cast<long long>(w.end),
                      static_cast<long long>(mispredicts));
        entries.push_back(Entry{w.end, buf});
      }
    }
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });

  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(f.get(), "%s%s\n", entries[i].json.c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f.get(), "]}\n");
  return CloseWritten(std::move(f), path);
}

Status ExportAll(const std::string& base, const ExportMeta& meta,
                 const std::vector<Event>& events) {
  std::string stem = base;
  const std::string suffix = ".jsonl";
  if (stem.size() > suffix.size() &&
      stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
    stem.resize(stem.size() - suffix.size());
  }
  ECOSTORE_RETURN_NOT_OK(WriteJsonl(stem + ".jsonl", meta, events));
  ECOSTORE_RETURN_NOT_OK(WritePowerTimelineCsv(stem + ".power.csv", meta,
                                               events));
  return WriteChromeTrace(stem + ".trace.json", meta, events);
}

}  // namespace ecostore::telemetry
