// Compares two BENCH files (deepnote-bench-v1) and fails loudly on
// performance regressions.
//
//   bench_compare <reference.json> <candidate.json> [--threshold 0.15]
//                 [--allow-missing]
//
// A suite regresses when candidate ns/op exceeds reference ns/op by more
// than the threshold fraction; an end-to-end trials/sec entry regresses
// when the candidate rate drops below the reference by more than the
// threshold fraction (higher is better). Every entry under "end_to_end"
// present in both files is compared. A suite or end-to-end entry the
// reference has but the candidate DOESN'T is a failure — a benchmark
// that silently stops running is indistinguishable from one that
// regressed to nothing — unless --allow-missing restores the old
// report-only behavior (CI smoke runs use it: the smoke invocation
// deliberately skips the heavy cells). Candidate-only entries are
// reported but never fail. An end-to-end entry in the candidate that
// carries a "min_speedup" field is additionally gated on its own
// recorded baseline: candidate current/baseline must reach that floor
// (this is how the serving cells bound the request pipeline's cost
// against immediate dispatch). An entry with a "gates" object is gated
// on its own "metrics" absolutely: each gated metric must stay inside
// [min, max] — this is how overload_recovery_1k enforces the <= 30 s
// recovery time, and cluster_availability_1k the >= 99% cross-pod
// attack availability, regardless of host speed. The per-suite table is
// sorted worst delta first so the regression (or near-miss) is always
// the first row; the exit-1 failure message names every offending
// suite. Exit code 1 when anything regresses, 0 otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tools/minijson.h"

namespace {

using deepnote::tools::JsonValue;
using deepnote::tools::json_parse;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct MetricGate {
  std::optional<double> min;
  std::optional<double> max;
};

struct EndToEndEntry {
  double current = 0.0;  // trials/s
  std::optional<double> baseline;
  std::optional<double> min_speedup;
  std::map<std::string, double> metrics;    // sim-time measurements
  std::map<std::string, MetricGate> gates;  // absolute bounds on metrics
};

struct BenchFile {
  std::map<std::string, double> suites;  // name -> current ns/op
  std::map<std::string, EndToEndEntry> end_to_end;
};

BenchFile load(const std::string& path) {
  const JsonValue root = json_parse(read_file(path));
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->string_or("") != "deepnote-bench-v1") {
    throw std::runtime_error(path + ": not a deepnote-bench-v1 file");
  }
  BenchFile f;
  if (const JsonValue* suites = root.find("suites")) {
    for (const auto& [name, suite] : suites->object) {
      if (const JsonValue* ns = suite.find("current_ns_per_op");
          ns != nullptr && ns->is_number()) {
        f.suites[name] = ns->number;
      }
    }
  }
  if (const JsonValue* e2e = root.find("end_to_end")) {
    for (const auto& [name, entry] : e2e->object) {
      const JsonValue* t = entry.find("current_trials_per_s");
      if (t == nullptr || !t->is_number()) continue;
      EndToEndEntry e;
      e.current = t->number;
      if (const JsonValue* b = entry.find("baseline_trials_per_s");
          b != nullptr && b->is_number()) {
        e.baseline = b->number;
      }
      if (const JsonValue* m = entry.find("min_speedup");
          m != nullptr && m->is_number()) {
        e.min_speedup = m->number;
      }
      if (const JsonValue* metrics = entry.find("metrics")) {
        for (const auto& [metric, v] : metrics->object) {
          if (v.is_number()) e.metrics[metric] = v.number;
        }
      }
      if (const JsonValue* gates = entry.find("gates")) {
        for (const auto& [metric, bounds] : gates->object) {
          MetricGate gate;
          if (const JsonValue* lo = bounds.find("min");
              lo != nullptr && lo->is_number()) {
            gate.min = lo->number;
          }
          if (const JsonValue* hi = bounds.find("max");
              hi != nullptr && hi->is_number()) {
            gate.max = hi->number;
          }
          e.gates[metric] = gate;
        }
      }
      f.end_to_end[name] = e;
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold = 0.15;
  bool allow_missing = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: --threshold needs a value\n");
        return 2;
      }
      threshold = std::atof(argv[++i]);
    } else if (arg == "--allow-missing") {
      allow_missing = true;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare <reference.json> <candidate.json> "
                 "[--threshold 0.15] [--allow-missing]\n");
    return 2;
  }

  try {
    const BenchFile ref = load(paths[0]);
    const BenchFile cand = load(paths[1]);

    // One row per comparison. `badness` is the sort key — the fraction
    // by which the candidate is worse than what it is held against
    // (positive = worse), so the table leads with the entries closest
    // to (or past) the gate regardless of which metric they use.
    struct Row {
      std::string name;
      std::string ref_col;
      std::string cand_col;
      std::string delta_col;
      double badness = 0.0;
      bool comparable = false;  // one-sided rows sort last, never fail
      bool regressed = false;
    };
    std::vector<Row> rows;
    auto fmt = [](const char* f, double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), f, v);
      return std::string(buf);
    };

    int compared = 0;
    for (const auto& [name, ref_ns] : ref.suites) {
      const auto it = cand.suites.find(name);
      if (it == cand.suites.end()) {
        // A vanished suite fails unless --allow-missing: silence is not
        // evidence of health. Max badness so it leads the table.
        rows.push_back({name, fmt("%.1f", ref_ns), "MISSING", "-",
                        /*badness=*/1e9, /*comparable=*/!allow_missing,
                        /*regressed=*/!allow_missing});
        continue;
      }
      ++compared;
      const double delta = ref_ns > 0 ? (it->second - ref_ns) / ref_ns : 0.0;
      rows.push_back({name, fmt("%.1f", ref_ns), fmt("%.1f", it->second),
                      fmt("%+.1f%%", delta * 100.0), delta, true,
                      delta > threshold});
    }
    for (const auto& [name, ns] : cand.suites) {
      if (ref.suites.find(name) == ref.suites.end()) {
        rows.push_back({name, "NEW", fmt("%.1f", ns), "-"});
      }
    }
    for (const auto& [name, ref_entry] : ref.end_to_end) {
      const std::string label = "end_to_end." + name;
      const double ref_rate = ref_entry.current;
      const auto it = cand.end_to_end.find(name);
      if (it == cand.end_to_end.end()) {
        rows.push_back({label, fmt("%.3f/s", ref_rate), "MISSING", "-",
                        /*badness=*/1e9, /*comparable=*/!allow_missing,
                        /*regressed=*/!allow_missing});
        continue;
      }
      ++compared;
      const double delta =
          ref_rate > 0 ? (it->second.current - ref_rate) / ref_rate : 0.0;
      // Higher is better for rates: badness is the drop.
      rows.push_back({label, fmt("%.3f/s", ref_rate),
                      fmt("%.3f/s", it->second.current),
                      fmt("%+.1f%%", delta * 100.0), -delta, true,
                      delta < -threshold});
    }
    for (const auto& [name, entry] : cand.end_to_end) {
      if (ref.end_to_end.find(name) == ref.end_to_end.end()) {
        rows.push_back({"end_to_end." + name, "NEW",
                        fmt("%.3f/s", entry.current), "-"});
      }
    }
    // Speedup floors travel with the candidate file: an entry that
    // records both its own baseline and a min_speedup must clear it.
    // Badness is the shortfall against the floor, so a floor check that
    // barely passes still sorts near the top.
    for (const auto& [name, entry] : cand.end_to_end) {
      if (!entry.min_speedup.has_value() || !entry.baseline.has_value() ||
          *entry.baseline <= 0) {
        continue;
      }
      ++compared;
      const double speedup = entry.current / *entry.baseline;
      const double floor = *entry.min_speedup;
      rows.push_back({"end_to_end." + name + ".speedup", fmt("%.2fx", floor),
                      fmt("%.2fx", speedup),
                      fmt("%+.1f%%", (speedup / floor - 1.0) * 100.0),
                      floor > 0 ? 1.0 - speedup / floor : 0.0, true,
                      speedup < floor});
    }
    // Absolute metric gates travel with the candidate too: an entry
    // that records "metrics" and "gates" must keep every gated metric
    // inside [min, max]. These are sim-time measurements (e.g. seconds
    // to recover from an overload), so no reference or threshold
    // applies — the bound is the contract. Badness is the fractional
    // distance past the bound (negative slack when inside it).
    for (const auto& [name, entry] : cand.end_to_end) {
      for (const auto& [metric, gate] : entry.gates) {
        const std::string label = "end_to_end." + name + "." + metric;
        const auto found = entry.metrics.find(metric);
        if (found == entry.metrics.end()) {
          rows.push_back({label, "gated", "NO METRIC", "-", /*badness=*/1e9,
                          /*comparable=*/true, /*regressed=*/true});
          ++compared;
          continue;
        }
        const double value = found->second;
        std::string bound;
        double badness = 0.0;
        bool regressed = false;
        if (gate.max.has_value()) {
          bound = fmt("<= %.4g", *gate.max);
          const double scale = std::max(std::abs(*gate.max), 1.0);
          badness = (value - *gate.max) / scale;
          regressed = value > *gate.max;
        }
        if (gate.min.has_value()) {
          if (!bound.empty()) bound += " ";
          bound += fmt(">= %.4g", *gate.min);
          const double scale = std::max(std::abs(*gate.min), 1.0);
          badness = std::max(badness, (*gate.min - value) / scale);
          regressed = regressed || value < *gate.min;
        }
        ++compared;
        rows.push_back({label, bound, fmt("%.4g", value), "-", badness,
                        /*comparable=*/true, regressed});
      }
    }
    if (compared == 0) {
      std::fprintf(stderr, "bench_compare: no overlapping suites to compare\n");
      return 2;
    }

    std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      if (a.comparable != b.comparable) return a.comparable;  // one-sided last
      return a.badness > b.badness;  // worst first
    });
    std::printf("%-44s %14s %14s %9s\n", "suite (worst delta first)", "ref",
                "cand", "delta");
    std::vector<std::string> offenders;
    for (const Row& r : rows) {
      std::printf("%-44s %14s %14s %9s%s\n", r.name.c_str(), r.ref_col.c_str(),
                  r.cand_col.c_str(), r.delta_col.c_str(),
                  r.regressed ? "  << FAIL" : "");
      if (r.regressed) offenders.push_back(r.name);
    }
    if (!offenders.empty()) {
      std::string list;
      for (const std::string& name : offenders) {
        if (!list.empty()) list += ", ";
        list += name;
      }
      std::printf("\n%zu regression(s) beyond %.0f%% threshold: %s\n",
                  offenders.size(), threshold * 100.0, list.c_str());
      return 1;
    }
    std::printf("\nno regressions beyond %.0f%% threshold (%d compared)\n",
                threshold * 100.0, compared);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  return 0;
}
