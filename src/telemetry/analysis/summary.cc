#include "telemetry/analysis/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>

#include "telemetry/file_handle.h"
#include "telemetry/flat_json.h"

namespace ecostore::telemetry::analysis {

namespace {

int PatternFromName(const std::string& name) {
  for (int p = 0; p < kNumPatternSlots; ++p) {
    if (name == PatternSlotName(static_cast<uint8_t>(p))) return p;
  }
  return kPatternUnclassified;
}

int OutcomeFromName(const std::string& name) {
  for (int o = 0; o < kNumOutcomes; ++o) {
    if (name == IoOutcomeName(static_cast<uint8_t>(o))) return o;
  }
  return 0;
}

/// `"key": value` as the summary file spells it: %.17g for a double
/// (it round-trips exactly), a decimal integer otherwise (bool as 0/1).
template <typename R, typename S>
std::string FieldJson(const char* key, const R& record,
                      const FieldMember<S>& member) {
  char buf[96];
  VisitField(record, member, [&](auto value) {
    if constexpr (std::is_same_v<decltype(value), double>) {
      std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", key, value);
    } else {
      std::snprintf(buf, sizeof(buf), "\"%s\": %lld", key,
                    static_cast<long long>(value));
    }
  });
  return buf;
}

template <typename R, typename S>
double FieldValue(const R& record, const FieldMember<S>& member) {
  return VisitField(record, member,
                    [](auto value) { return static_cast<double>(value); });
}

}  // namespace

Summary SummaryFromLedger(const ExportMeta& meta, const EnergyLedger& ledger) {
  Summary s;
  s.workload = meta.workload;
  s.policy = meta.policy;
  s.num_enclosures = meta.num_enclosures;
  s.duration = meta.duration;
  s.enclosure_energy_j = meta.enclosure_energy_j;
  s.controller_energy_j = meta.controller_energy_j;
  s.total_energy_j = meta.enclosure_energy_j + meta.controller_energy_j;
  s.has_ledger = meta.has_power_model && ledger.has_finals;
  s.ledger_enclosure_j = ledger.ledger_enclosure_j;
  s.reconcile_rel_err = ledger.reconcile_rel_err;
  s.off_credit_j = ledger.off_credit_j;
  s.off_debit_j = ledger.off_debit_j;
  s.net_saving_j = ledger.off_credit_j - ledger.off_debit_j;
  s.advisory_credit_j = ledger.advisory_credit_j;
  s.advisory_debit_j = ledger.advisory_debit_j;
  s.mispredict_loss_j = ledger.mispredict_loss_j;
  s.plans = ledger.plans;
  s.decisions = ledger.decisions;
  s.off_windows = static_cast<int64_t>(ledger.off_windows.size());
  s.mispredicts = ledger.mispredicts;
  s.migrations = ledger.migrations;
  s.preloads = ledger.preloads;
  s.write_delays = ledger.write_delays;

  // Latency digests in fixed (pattern, outcome) order regardless of the
  // order the capture carried them in.
  std::vector<const LatencySlot*> slots;
  for (const LatencySlot& slot : meta.latency) {
    if (slot.hist.count() > 0) slots.push_back(&slot);
  }
  std::sort(slots.begin(), slots.end(),
            [](const LatencySlot* a, const LatencySlot* b) {
              if (a->pattern != b->pattern) return a->pattern < b->pattern;
              return a->outcome < b->outcome;
            });
  for (const LatencySlot* slot : slots) {
    LatencyRow row;
    row.pattern = slot->pattern;
    row.outcome = slot->outcome;
    row.count = slot->hist.count();
    row.p50_us = slot->hist.Quantile(0.50);
    row.p95_us = slot->hist.Quantile(0.95);
    row.p99_us = slot->hist.Quantile(0.99);
    row.max_us = slot->hist.max();
    row.mean_us = slot->hist.Mean();
    s.latency.push_back(row);
  }
  return s;
}

Summary BuildSummary(const ExportMeta& meta, const std::vector<Event>& events,
                     EnergyLedger* out_ledger) {
  EnergyLedger ledger = BuildLedger(meta, events);
  Summary s = SummaryFromLedger(meta, ledger);
  if (out_ledger != nullptr) *out_ledger = std::move(ledger);
  return s;
}

Status WriteSummaryJson(const std::string& path, const Summary& s) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f.get(), "{\n");
  std::fprintf(f.get(), "  \"type\": \"summary\",\n");
  std::fprintf(f.get(), "  \"schema\": 1,\n");
  std::fprintf(f.get(), "  \"workload\": \"%s\",\n", s.workload.c_str());
  std::fprintf(f.get(), "  \"policy\": \"%s\",\n", s.policy.c_str());
  std::fprintf(f.get(), "  \"num_enclosures\": %d,\n", s.num_enclosures);
  std::fprintf(f.get(), "  \"duration_us\": %lld,\n",
               static_cast<long long>(s.duration));
  const size_t n = std::size(kAccountFields);
  for (size_t i = 0; i < n; ++i) {
    const AccountField& field = kAccountFields[i];
    const bool opens =
        i == 0 ||
        std::strcmp(field.section, kAccountFields[i - 1].section) != 0;
    const bool closes =
        i + 1 == n ||
        std::strcmp(field.section, kAccountFields[i + 1].section) != 0;
    if (opens) std::fprintf(f.get(), "  \"%s\": {\n", field.section);
    std::fprintf(f.get(), "    %s%s\n",
                 FieldJson(field.key, s, field.member).c_str(),
                 closes ? "" : ",");
    if (closes) std::fprintf(f.get(), "  },\n");
  }
  std::fprintf(f.get(), "  \"latency\": [\n");
  for (size_t i = 0; i < s.latency.size(); ++i) {
    const LatencyRow& r = s.latency[i];
    std::fprintf(f.get(), "    {\"pattern\": \"%s\", \"outcome\": \"%s\"",
                 PatternSlotName(r.pattern), IoOutcomeName(r.outcome));
    for (const RecordField<LatencyRow>& field : kLatencyRowFields) {
      std::fprintf(f.get(), ", %s",
                   FieldJson(field.key, r, field.member).c_str());
    }
    std::fprintf(f.get(), "}%s\n", i + 1 < s.latency.size() ? "," : "");
  }
  std::fprintf(f.get(), "  ]\n");
  std::fprintf(f.get(), "}\n");
  return CloseWritten(std::move(f), path);
}

Status ParseSummaryFile(const std::string& path, Summary* s) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  *s = Summary{};
  // The object the current line sits in: "" at the top level, else the
  // key of the last `"name": {` / `"name": [` line.
  std::string section;
  bool is_summary = false;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    std::string line(buf);
    std::string trimmed = line;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    if (trimmed.size() > 1 && trimmed.front() == '"' &&
        (trimmed.back() == '{' || trimmed.back() == '[')) {
      section = trimmed.substr(1, trimmed.find('"', 1) - 1);
      continue;
    }
    // Section terminators ("  }," / "  ]").
    if (!section.empty() && (trimmed == "}," || trimmed == "}" ||
                             trimmed == "]," || trimmed == "]")) {
      section.clear();
      continue;
    }
    FlatJson json{line};
    if (section.empty()) {
      if (json.Str("type") == "summary") is_summary = true;
      if (json.Has("workload")) s->workload = json.Str("workload");
      if (json.Has("policy")) s->policy = json.Str("policy");
      if (json.Has("num_enclosures")) {
        s->num_enclosures = static_cast<int>(json.Int("num_enclosures"));
      }
      if (json.Has("duration_us")) s->duration = json.Int("duration_us");
    } else if (section == "latency") {
      if (json.Has("pattern") && json.Has("outcome")) {
        LatencyRow row;
        row.pattern =
            static_cast<uint8_t>(PatternFromName(json.Str("pattern")));
        row.outcome =
            static_cast<uint8_t>(OutcomeFromName(json.Str("outcome")));
        for (const RecordField<LatencyRow>& field : kLatencyRowFields) {
          json.Read(field.key, field.member, &row);
        }
        s->latency.push_back(row);
      }
    } else {
      for (const AccountField& field : kAccountFields) {
        if (section == field.section && json.Has(field.key)) {
          json.Read(field.key, field.member, s);
        }
      }
    }
  }
  if (!is_summary) {
    return Status::InvalidArgument(path + ": not a telemetry summary file");
  }
  return Status::OK();
}

namespace {

void CompareField(std::vector<SummaryDiff>* diffs, std::string field,
                  double a, double b, double tolerance) {
  // Relative comparison floored at 1.0 absolute units so zero-valued
  // counters compare exactly without dividing by zero.
  const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
  const double rel = std::fabs(a - b) / denom;
  if (rel > tolerance) {
    diffs->push_back(SummaryDiff{std::move(field), a, b, rel});
  }
}

}  // namespace

std::vector<SummaryDiff> CompareAccounts(const Summary& a, const Summary& b,
                                         double tolerance) {
  std::vector<SummaryDiff> diffs;
  for (const AccountField& field : kAccountFields) {
    if (!field.gated) continue;
    CompareField(&diffs, std::string(field.section) + "." + field.key,
                 FieldValue(a, field.member), FieldValue(b, field.member),
                 tolerance);
  }
  return diffs;
}

std::vector<SummaryDiff> CompareSummaries(const Summary& a, const Summary& b,
                                          double tolerance) {
  std::vector<SummaryDiff> diffs = CompareAccounts(a, b, tolerance);
  auto row_key = [](const LatencyRow& r) {
    return std::string(PatternSlotName(r.pattern)) + "/" +
           IoOutcomeName(r.outcome);
  };
  auto find_row = [&](const Summary& s, const std::string& key)
      -> const LatencyRow* {
    for (const LatencyRow& r : s.latency) {
      if (row_key(r) == key) return &r;
    }
    return nullptr;
  };
  for (const LatencyRow& ra : a.latency) {
    const std::string key = row_key(ra);
    const LatencyRow* rb = find_row(b, key);
    if (rb == nullptr) {
      diffs.push_back(SummaryDiff{"latency." + key + ".count",
                                  static_cast<double>(ra.count), 0.0, 1.0});
      continue;
    }
    for (const RecordField<LatencyRow>& field : kLatencyRowFields) {
      CompareField(&diffs, "latency." + key + "." + field.key,
                   FieldValue(ra, field.member), FieldValue(*rb, field.member),
                   tolerance);
    }
  }
  for (const LatencyRow& rb : b.latency) {
    if (find_row(a, row_key(rb)) == nullptr) {
      diffs.push_back(SummaryDiff{"latency." + row_key(rb) + ".count", 0.0,
                                  static_cast<double>(rb.count), 1.0});
    }
  }
  return diffs;
}

}  // namespace ecostore::telemetry::analysis
