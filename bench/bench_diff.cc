// bench_diff — regression gate over BENCH_*.json lines.
//
//   bench_diff <baseline-file> <current-file> --tol <spec-file>
//   bench_diff --self-test
//
// Both inputs are raw bench output; only lines of the form
// `BENCH_<name>.json {...}` are read (the bench::Report / --profile
// contract). Rows pair up positionally per bench name, and every numeric
// key present in both rows is checked against the tolerance spec:
//
//   # key  direction  rel_tol
//   speedup        higher  0.40
//   durable_seconds lower  0.40
//   lock_wait_s    either  0.60
//
// `higher` means bigger is better (regression when current falls more
// than rel_tol below baseline), `lower` the reverse, `either` bounds
// relative drift both ways. Keys without a spec entry are reported but
// not gated, so adding metrics never breaks CI. A bench name present in
// the baseline but absent from the current run is a failure (the gate
// must notice silently dropped coverage); new benches in the current run
// are fine. Exit 0 = pass, 1 = regression, 2 = usage/parse error.
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Row {
  std::string bench;
  std::vector<std::pair<std::string, double>> nums;  // insertion order
  const double* find(const std::string& key) const {
    for (const auto& [k, v] : nums) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// Parses the flat JSON object bench::Report emits: string values are
// skipped (they name modes/apps and are matched positionally), numeric
// values are collected. Returns false on malformed input.
bool ParseFlatObject(const std::string& s, Row* row) {
  std::size_t i = 0;
  auto ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  };
  auto quoted = [&](std::string* out) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out->push_back(s[i++]);
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  };
  ws();
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  ws();
  if (i < s.size() && s[i] == '}') return true;
  while (true) {
    ws();
    std::string key;
    if (!quoted(&key)) return false;
    ws();
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    ws();
    if (i < s.size() && s[i] == '"') {
      std::string ignored;
      if (!quoted(&ignored)) return false;
    } else {
      const char* start = s.c_str() + i;
      char* end = nullptr;
      const double v = std::strtod(start, &end);
      if (end == start) return false;
      i += static_cast<std::size_t>(end - start);
      row->nums.emplace_back(key, v);
    }
    ws();
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') return true;
    return false;
  }
}

bool CollectRows(std::istream& in, std::vector<Row>* rows, std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.rfind("BENCH_", 0) != 0) continue;
    const std::size_t mark = line.find(".json ");
    if (mark == std::string::npos) continue;
    Row row;
    row.bench = line.substr(6, mark - 6);
    if (!ParseFlatObject(line.substr(mark + 6), &row)) {
      *error = "line " + std::to_string(lineno) + ": malformed BENCH_ json";
      return false;
    }
    rows->push_back(std::move(row));
  }
  return true;
}

struct TolRule {
  enum Dir { kHigher, kLower, kEither } dir = kEither;
  double rel = 0.0;
};

bool ParseSpec(std::istream& in, std::map<std::string, TolRule>* spec,
               std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string key, dir;
    double rel = 0.0;
    if (!(ls >> key)) continue;  // blank/comment line
    if (!(ls >> dir >> rel) || rel < 0.0) {
      *error = "spec line " + std::to_string(lineno) +
               ": expected `<key> <higher|lower|either> <rel_tol>`";
      return false;
    }
    TolRule rule;
    if (dir == "higher") {
      rule.dir = TolRule::kHigher;
    } else if (dir == "lower") {
      rule.dir = TolRule::kLower;
    } else if (dir == "either") {
      rule.dir = TolRule::kEither;
    } else {
      *error = "spec line " + std::to_string(lineno) + ": bad direction `" +
               dir + "`";
      return false;
    }
    rule.rel = rel;
    (*spec)[key] = rule;
  }
  return true;
}

struct DiffResult {
  std::vector<std::string> regressions;
  std::size_t checked = 0;
  std::size_t unchecked = 0;
};

DiffResult Compare(const std::vector<Row>& baseline,
                   const std::vector<Row>& current,
                   const std::map<std::string, TolRule>& spec) {
  DiffResult out;
  // Positional pairing per bench name.
  std::map<std::string, std::vector<const Row*>> cur_by_bench;
  for (const Row& r : current) cur_by_bench[r.bench].push_back(&r);
  std::map<std::string, std::size_t> next_index;
  for (const Row& base : baseline) {
    auto it = cur_by_bench.find(base.bench);
    const std::size_t idx = next_index[base.bench]++;
    if (it == cur_by_bench.end() || idx >= it->second.size()) {
      out.regressions.push_back(base.bench + "[" + std::to_string(idx) +
                                "]: row missing from current run");
      continue;
    }
    const Row& cur = *it->second[idx];
    for (const auto& [key, bval] : base.nums) {
      const double* cval = cur.find(key);
      if (cval == nullptr) {
        out.regressions.push_back(base.bench + "[" + std::to_string(idx) +
                                  "]." + key + ": missing from current run");
        continue;
      }
      const auto rule = spec.find(key);
      if (rule == spec.end()) {
        ++out.unchecked;
        continue;
      }
      ++out.checked;
      const double b = bval, c = *cval;
      const double scale = std::fabs(b) > 0.0 ? std::fabs(b) : 1.0;
      const double tol = rule->second.rel;
      bool bad = false;
      switch (rule->second.dir) {
        case TolRule::kHigher: bad = c < b - tol * scale; break;
        case TolRule::kLower: bad = c > b + tol * scale; break;
        case TolRule::kEither: bad = std::fabs(c - b) > tol * scale; break;
      }
      if (bad) {
        std::ostringstream msg;
        msg.precision(9);
        msg << base.bench << "[" << idx << "]." << key << ": baseline " << b
            << " -> current " << c << " (rel tol " << tol << ", "
            << (rule->second.dir == TolRule::kHigher
                    ? "higher-is-better"
                    : rule->second.dir == TolRule::kLower ? "lower-is-better"
                                                          : "either") << ")";
        out.regressions.push_back(msg.str());
      }
    }
  }
  return out;
}

int SelfTest() {
  // Synthetic run: one throughput-style metric and one duration-style
  // metric. The "slow" current run halves the bandwidth and doubles the
  // duration — both must be flagged; the identical run must pass; and a
  // within-tolerance wiggle must pass.
  const std::string baseline =
      "noise line\n"
      "BENCH_synthetic.json {\"mode\": \"x\", \"bw_mbs\": 100, "
      "\"elapsed_s\": 10}\n";
  const std::string same = baseline;
  const std::string slow =
      "BENCH_synthetic.json {\"mode\": \"x\", \"bw_mbs\": 50, "
      "\"elapsed_s\": 20}\n";
  const std::string wiggle =
      "BENCH_synthetic.json {\"mode\": \"x\", \"bw_mbs\": 92, "
      "\"elapsed_s\": 10.8}\n";
  const std::string spec_text =
      "bw_mbs higher 0.25\n"
      "elapsed_s lower 0.25\n";

  auto rows = [](const std::string& text) {
    std::istringstream in(text);
    std::vector<Row> r;
    std::string err;
    if (!CollectRows(in, &r, &err)) {
      std::cerr << "self-test: parse failed: " << err << "\n";
      std::exit(1);
    }
    return r;
  };
  std::map<std::string, TolRule> spec;
  {
    std::istringstream in(spec_text);
    std::string err;
    if (!ParseSpec(in, &spec, &err)) {
      std::cerr << "self-test: spec parse failed: " << err << "\n";
      return 1;
    }
  }
  const DiffResult identical = Compare(rows(baseline), rows(same), spec);
  if (!identical.regressions.empty() || identical.checked != 2) {
    std::cerr << "self-test: identical runs must pass with 2 checked keys\n";
    return 1;
  }
  const DiffResult slowed = Compare(rows(baseline), rows(slow), spec);
  if (slowed.regressions.size() != 2) {
    std::cerr << "self-test: injected 2x slowdown must flag both metrics, got "
              << slowed.regressions.size() << "\n";
    return 1;
  }
  const DiffResult ok = Compare(rows(baseline), rows(wiggle), spec);
  if (!ok.regressions.empty()) {
    std::cerr << "self-test: within-tolerance drift must pass\n";
    return 1;
  }
  std::cout << "bench_diff self-test: PASS (2x slowdown detected, identical "
               "and in-tolerance runs pass)\n";
  return 0;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <baseline-file> <current-file> --tol <spec-file>\n"
               "       " << argv0 << " --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string spec_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return SelfTest();
    if (a == "--tol" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (a.rfind("--tol=", 0) == 0) {
      spec_path = a.substr(6);
    } else if (!a.empty() && a[0] == '-') {
      return Usage(argv[0]);
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2 || spec_path.empty()) return Usage(argv[0]);

  auto load = [](const std::string& path, std::vector<Row>* rows) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "bench_diff: cannot open " << path << "\n";
      return false;
    }
    std::string err;
    if (!CollectRows(in, rows, &err)) {
      std::cerr << "bench_diff: " << path << ": " << err << "\n";
      return false;
    }
    return true;
  };
  std::vector<Row> baseline, current;
  if (!load(files[0], &baseline) || !load(files[1], &current)) return 2;
  if (baseline.empty()) {
    std::cerr << "bench_diff: no BENCH_ lines in baseline " << files[0] << "\n";
    return 2;
  }
  std::map<std::string, TolRule> spec;
  {
    std::ifstream in(spec_path);
    if (!in) {
      std::cerr << "bench_diff: cannot open tolerance spec " << spec_path << "\n";
      return 2;
    }
    std::string err;
    if (!ParseSpec(in, &spec, &err)) {
      std::cerr << "bench_diff: " << spec_path << ": " << err << "\n";
      return 2;
    }
  }

  const DiffResult result = Compare(baseline, current, spec);
  std::cout << "bench_diff: " << baseline.size() << " baseline rows, "
            << result.checked << " keys gated, " << result.unchecked
            << " ungated\n";
  for (const std::string& r : result.regressions) {
    std::cout << "REGRESSION " << r << "\n";
  }
  if (!result.regressions.empty()) {
    std::cout << "bench_diff: FAIL (" << result.regressions.size()
              << " regressions)\n";
    return 1;
  }
  std::cout << "bench_diff: PASS\n";
  return 0;
}
