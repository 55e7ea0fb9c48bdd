#include "telemetry/analysis/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "telemetry/flat_json.h"

namespace ecostore::telemetry::analysis {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

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

void PrintKVF(std::FILE* f, const char* indent, const char* key, double value,
              bool comma) {
  std::fprintf(f, "%s\"%s\": %.17g%s\n", indent, key, value, comma ? "," : "");
}

void PrintKVI(std::FILE* f, const char* indent, const char* key, int64_t value,
              bool comma) {
  std::fprintf(f, "%s\"%s\": %lld%s\n", indent, key,
               static_cast<long long>(value), comma ? "," : "");
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
  PrintKVI(f.get(), "  ", "num_enclosures", s.num_enclosures, true);
  PrintKVI(f.get(), "  ", "duration_us", s.duration, true);
  std::fprintf(f.get(), "  \"energy\": {\n");
  PrintKVF(f.get(), "    ", "enclosure_j", s.enclosure_energy_j, true);
  PrintKVF(f.get(), "    ", "controller_j", s.controller_energy_j, true);
  PrintKVF(f.get(), "    ", "total_j", s.total_energy_j, true);
  PrintKVI(f.get(), "    ", "has_ledger", s.has_ledger ? 1 : 0, true);
  PrintKVF(f.get(), "    ", "ledger_enclosure_j", s.ledger_enclosure_j, true);
  PrintKVF(f.get(), "    ", "reconcile_rel_err", s.reconcile_rel_err, true);
  PrintKVF(f.get(), "    ", "off_credit_j", s.off_credit_j, true);
  PrintKVF(f.get(), "    ", "off_debit_j", s.off_debit_j, true);
  PrintKVF(f.get(), "    ", "net_saving_j", s.net_saving_j, true);
  PrintKVF(f.get(), "    ", "advisory_credit_j", s.advisory_credit_j, true);
  PrintKVF(f.get(), "    ", "advisory_debit_j", s.advisory_debit_j, true);
  PrintKVF(f.get(), "    ", "mispredict_loss_j", s.mispredict_loss_j, false);
  std::fprintf(f.get(), "  },\n");
  std::fprintf(f.get(), "  \"plans\": {\n");
  PrintKVI(f.get(), "    ", "plans", s.plans, true);
  PrintKVI(f.get(), "    ", "decisions", s.decisions, true);
  PrintKVI(f.get(), "    ", "off_windows", s.off_windows, true);
  PrintKVI(f.get(), "    ", "mispredicts", s.mispredicts, true);
  PrintKVI(f.get(), "    ", "migrations", s.migrations, true);
  PrintKVI(f.get(), "    ", "preloads", s.preloads, true);
  PrintKVI(f.get(), "    ", "write_delays", s.write_delays, false);
  std::fprintf(f.get(), "  },\n");
  std::fprintf(f.get(), "  \"latency\": [\n");
  for (size_t i = 0; i < s.latency.size(); ++i) {
    const LatencyRow& r = s.latency[i];
    std::fprintf(f.get(),
                 "    {\"pattern\": \"%s\", \"outcome\": \"%s\", "
                 "\"count\": %lld, \"p50_us\": %lld, \"p95_us\": %lld, "
                 "\"p99_us\": %lld, \"max_us\": %lld, \"mean_us\": %.17g}%s\n",
                 PatternSlotName(r.pattern), IoOutcomeName(r.outcome),
                 static_cast<long long>(r.count),
                 static_cast<long long>(r.p50_us),
                 static_cast<long long>(r.p95_us),
                 static_cast<long long>(r.p99_us),
                 static_cast<long long>(r.max_us), r.mean_us,
                 i + 1 < s.latency.size() ? "," : "");
  }
  std::fprintf(f.get(), "  ]\n");
  std::fprintf(f.get(), "}\n");
  return Status::OK();
}

Status ParseSummaryFile(const std::string& path, Summary* s) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  *s = Summary{};
  enum class Section { kTop, kEnergy, kPlans, kLatency };
  Section section = Section::kTop;
  bool is_summary = false;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    std::string line(buf);
    if (line.find("\"energy\": {") != std::string::npos) {
      section = Section::kEnergy;
      continue;
    }
    if (line.find("\"plans\": {") != std::string::npos) {
      section = Section::kPlans;
      continue;
    }
    if (line.find("\"latency\": [") != std::string::npos) {
      section = Section::kLatency;
      continue;
    }
    // Section terminators ("  }," / "  ]").
    std::string trimmed = line;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    if (section != Section::kTop &&
        (trimmed == "}," || trimmed == "}" || trimmed == "]," ||
         trimmed == "]")) {
      section = Section::kTop;
      continue;
    }
    FlatJson json{line};
    switch (section) {
      case Section::kTop:
        if (json.Str("type") == "summary") is_summary = true;
        if (json.Has("workload")) s->workload = json.Str("workload");
        if (json.Has("policy")) s->policy = json.Str("policy");
        if (json.Has("num_enclosures")) {
          s->num_enclosures = static_cast<int>(json.Int("num_enclosures"));
        }
        if (json.Has("duration_us")) s->duration = json.Int("duration_us");
        break;
      case Section::kEnergy:
        if (json.Has("enclosure_j")) {
          s->enclosure_energy_j = json.Dbl("enclosure_j");
        }
        if (json.Has("controller_j")) {
          s->controller_energy_j = json.Dbl("controller_j");
        }
        if (json.Has("total_j")) s->total_energy_j = json.Dbl("total_j");
        if (json.Has("has_ledger")) s->has_ledger = json.Int("has_ledger") != 0;
        if (json.Has("ledger_enclosure_j")) {
          s->ledger_enclosure_j = json.Dbl("ledger_enclosure_j");
        }
        if (json.Has("reconcile_rel_err")) {
          s->reconcile_rel_err = json.Dbl("reconcile_rel_err");
        }
        if (json.Has("off_credit_j")) s->off_credit_j = json.Dbl("off_credit_j");
        if (json.Has("off_debit_j")) s->off_debit_j = json.Dbl("off_debit_j");
        if (json.Has("net_saving_j")) s->net_saving_j = json.Dbl("net_saving_j");
        if (json.Has("advisory_credit_j")) {
          s->advisory_credit_j = json.Dbl("advisory_credit_j");
        }
        if (json.Has("advisory_debit_j")) {
          s->advisory_debit_j = json.Dbl("advisory_debit_j");
        }
        if (json.Has("mispredict_loss_j")) {
          s->mispredict_loss_j = json.Dbl("mispredict_loss_j");
        }
        break;
      case Section::kPlans:
        if (json.Has("plans")) s->plans = json.Int("plans");
        if (json.Has("decisions")) s->decisions = json.Int("decisions");
        if (json.Has("off_windows")) s->off_windows = json.Int("off_windows");
        if (json.Has("mispredicts")) s->mispredicts = json.Int("mispredicts");
        if (json.Has("migrations")) s->migrations = json.Int("migrations");
        if (json.Has("preloads")) s->preloads = json.Int("preloads");
        if (json.Has("write_delays")) {
          s->write_delays = json.Int("write_delays");
        }
        break;
      case Section::kLatency:
        if (json.Has("pattern") && json.Has("outcome")) {
          LatencyRow row;
          row.pattern = static_cast<uint8_t>(PatternFromName(
              json.Str("pattern")));
          row.outcome = static_cast<uint8_t>(OutcomeFromName(
              json.Str("outcome")));
          row.count = json.Int("count");
          row.p50_us = json.Int("p50_us");
          row.p95_us = json.Int("p95_us");
          row.p99_us = json.Int("p99_us");
          row.max_us = json.Int("max_us");
          row.mean_us = json.Dbl("mean_us");
          s->latency.push_back(row);
        }
        break;
    }
  }
  if (!is_summary) {
    return Status::InvalidArgument(path + ": not a telemetry summary file");
  }
  return Status::OK();
}

namespace {

void CompareField(std::vector<SummaryDiff>* diffs, const char* field, double a,
                  double b, double tolerance) {
  // Relative comparison floored at 1.0 absolute units so zero-valued
  // counters compare exactly without dividing by zero.
  const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
  const double rel = std::fabs(a - b) / denom;
  if (rel > tolerance) diffs->push_back(SummaryDiff{field, a, b, rel});
}

}  // namespace

std::vector<SummaryDiff> CompareAccounts(const Summary& a, const Summary& b,
                                         double tolerance) {
  std::vector<SummaryDiff> diffs;
  CompareField(&diffs, "energy.enclosure_j", a.enclosure_energy_j,
               b.enclosure_energy_j, tolerance);
  CompareField(&diffs, "energy.controller_j", a.controller_energy_j,
               b.controller_energy_j, tolerance);
  CompareField(&diffs, "energy.total_j", a.total_energy_j, b.total_energy_j,
               tolerance);
  CompareField(&diffs, "energy.off_credit_j", a.off_credit_j, b.off_credit_j,
               tolerance);
  CompareField(&diffs, "energy.off_debit_j", a.off_debit_j, b.off_debit_j,
               tolerance);
  CompareField(&diffs, "energy.net_saving_j", a.net_saving_j, b.net_saving_j,
               tolerance);
  CompareField(&diffs, "energy.mispredict_loss_j", a.mispredict_loss_j,
               b.mispredict_loss_j, tolerance);
  CompareField(&diffs, "energy.advisory_credit_j", a.advisory_credit_j,
               b.advisory_credit_j, tolerance);
  CompareField(&diffs, "energy.advisory_debit_j", a.advisory_debit_j,
               b.advisory_debit_j, tolerance);
  CompareField(&diffs, "energy.reconcile_rel_err", a.reconcile_rel_err,
               b.reconcile_rel_err, tolerance);
  CompareField(&diffs, "plans.plans", static_cast<double>(a.plans),
               static_cast<double>(b.plans), tolerance);
  CompareField(&diffs, "plans.decisions", static_cast<double>(a.decisions),
               static_cast<double>(b.decisions), tolerance);
  CompareField(&diffs, "plans.off_windows", static_cast<double>(a.off_windows),
               static_cast<double>(b.off_windows), tolerance);
  CompareField(&diffs, "plans.mispredicts", static_cast<double>(a.mispredicts),
               static_cast<double>(b.mispredicts), tolerance);
  CompareField(&diffs, "plans.migrations", static_cast<double>(a.migrations),
               static_cast<double>(b.migrations), tolerance);
  CompareField(&diffs, "plans.preloads", static_cast<double>(a.preloads),
               static_cast<double>(b.preloads), tolerance);
  CompareField(&diffs, "plans.write_delays",
               static_cast<double>(a.write_delays),
               static_cast<double>(b.write_delays), tolerance);
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
    const std::string prefix = "latency." + key + ".";
    CompareField(&diffs, (prefix + "count").c_str(),
                 static_cast<double>(ra.count), static_cast<double>(rb->count),
                 tolerance);
    CompareField(&diffs, (prefix + "p50_us").c_str(),
                 static_cast<double>(ra.p50_us),
                 static_cast<double>(rb->p50_us), tolerance);
    CompareField(&diffs, (prefix + "p95_us").c_str(),
                 static_cast<double>(ra.p95_us),
                 static_cast<double>(rb->p95_us), tolerance);
    CompareField(&diffs, (prefix + "p99_us").c_str(),
                 static_cast<double>(ra.p99_us),
                 static_cast<double>(rb->p99_us), tolerance);
    CompareField(&diffs, (prefix + "max_us").c_str(),
                 static_cast<double>(ra.max_us),
                 static_cast<double>(rb->max_us), tolerance);
    CompareField(&diffs, (prefix + "mean_us").c_str(), ra.mean_us, rb->mean_us,
                 tolerance);
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
