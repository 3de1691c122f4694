#include "pdsi/fsstats/fsstats.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>

namespace pdsi::fsstats {

std::uint64_t Survey::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& f : files) total += f.size;
  return total;
}

std::vector<CdfPoint> Survey::size_cdf() const {
  std::vector<double> sizes;
  sizes.reserve(files.size());
  for (const auto& f : files) sizes.push_back(static_cast<double>(f.size));
  return EmpiricalCdf(std::move(sizes));
}

std::vector<CdfPoint> Survey::bytes_by_size_cdf() const {
  std::vector<FileRecord> sorted = files;
  std::sort(sorted.begin(), sorted.end(),
            [](const FileRecord& a, const FileRecord& b) { return a.size < b.size; });
  std::vector<CdfPoint> cdf;
  const double total = static_cast<double>(total_bytes());
  if (total == 0) return cdf;
  double cum = 0;
  for (const auto& f : sorted) {
    cum += static_cast<double>(f.size);
    if (!cdf.empty() && cdf.back().value == static_cast<double>(f.size)) {
      cdf.back().fraction = cum / total;
    } else {
      cdf.push_back({static_cast<double>(f.size), cum / total});
    }
  }
  return cdf;
}

double Survey::fraction_below(std::uint64_t size) const {
  if (files.empty()) return 0.0;
  std::size_t below = 0;
  for (const auto& f : files) below += f.size <= size;
  return static_cast<double>(below) / static_cast<double>(files.size());
}

Survey GeneratePopulation(const PopulationParams& params, Rng& rng) {
  Survey s;
  s.name = params.name;
  s.files.reserve(params.file_count);
  std::uint32_t dir = 0;
  double dir_quota = rng.exponential(params.mean_dir_files);
  double dir_fill = 0.0;
  for (std::size_t i = 0; i < params.file_count; ++i) {
    FileRecord f;
    if (rng.chance(params.tail_fraction)) {
      f.size = static_cast<std::uint64_t>(rng.pareto(params.tail_min, params.tail_alpha));
    } else {
      f.size = static_cast<std::uint64_t>(
          rng.lognormal(params.lognormal_mu, params.lognormal_sigma));
    }
    if (dir_fill >= dir_quota) {
      ++dir;
      dir_quota = rng.exponential(params.mean_dir_files);
      dir_fill = 0.0;
    }
    f.directory = dir;
    dir_fill += 1.0;
    f.name_length = static_cast<std::uint16_t>(4 + rng.below(28));
    s.files.push_back(f);
  }
  return s;
}

std::vector<PopulationParams> Fig3Populations() {
  std::vector<PopulationParams> out;
  struct Shape {
    const char* name;
    double median_kib;
    double sigma;
    double tail_fraction;
  };
  // Eleven sites: scratch systems skew large, home/project skew small —
  // the Fig. 3 spread covers medians from a few KiB to ~1 MiB.
  const Shape shapes[] = {
      {"lanl-scratch1", 512, 2.4, 0.04}, {"lanl-scratch2", 1024, 2.2, 0.05},
      {"lanl-project", 96, 2.0, 0.02},   {"nersc-scratch", 384, 2.5, 0.04},
      {"nersc-home", 6, 1.8, 0.002},     {"pnnl-nwfs", 128, 2.3, 0.02},
      {"pnnl-home", 8, 1.9, 0.004},      {"sandia-scratch", 640, 2.4, 0.05},
      {"psc-scratch", 256, 2.3, 0.03},   {"cmu-pdl", 24, 2.0, 0.01},
      {"anon-corp", 48, 2.1, 0.015},
  };
  for (const auto& sh : shapes) {
    PopulationParams p;
    p.name = sh.name;
    p.file_count = 60000;
    p.lognormal_mu = std::log(sh.median_kib * 1024.0);
    p.lognormal_sigma = sh.sigma;
    p.tail_fraction = sh.tail_fraction;
    out.push_back(p);
  }
  return out;
}

Survey SurveyDirectory(const std::string& root) {
  namespace fs = std::filesystem;
  Survey s;
  s.name = root;
  std::unordered_map<std::string, std::uint32_t> dirs;
  for (const auto& entry : fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied)) {
    std::error_code ec;
    if (!entry.is_regular_file(ec) || ec) continue;
    FileRecord f;
    f.size = entry.file_size(ec);
    if (ec) continue;
    const std::string parent = entry.path().parent_path().string();
    auto [it, fresh] = dirs.emplace(parent, static_cast<std::uint32_t>(dirs.size()));
    f.directory = it->second;
    f.name_length = static_cast<std::uint16_t>(entry.path().filename().string().size());
    s.files.push_back(f);
  }
  return s;
}

}  // namespace pdsi::fsstats
