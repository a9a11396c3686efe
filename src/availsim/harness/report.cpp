#include "availsim/harness/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace availsim::harness {

std::string format_unavailability(double u) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.5f", std::max(0.0, u));
  return buf;
}

std::string format_availability_percent(double availability) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f%%", availability * 100.0);
  return buf;
}

void print_breakdown_header(std::ostream& os) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%-12s %9s | %9s %9s %9s %9s %9s %9s %9s %9s", "config",
                "total", "link", "switch", "scsi", "ncrash", "nfreeze",
                "acrash", "ahang", "fefail");
  os << buf << "\n";
}

void print_breakdown(std::ostream& os, const std::string& name,
                     const model::SystemModel& model) {
  const auto by = model.unavailability_by_fault();
  auto get = [&](fault::FaultType t) {
    auto it = by.find(t);
    return it == by.end() ? 0.0 : it->second;
  };
  char buf[240];
  std::snprintf(
      buf, sizeof(buf),
      "%-12s %9.5f | %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f",
      name.c_str(), model.unavailability(),
      get(fault::FaultType::kLinkDown), get(fault::FaultType::kSwitchDown),
      get(fault::FaultType::kScsiTimeout), get(fault::FaultType::kNodeCrash),
      get(fault::FaultType::kNodeFreeze), get(fault::FaultType::kAppCrash),
      get(fault::FaultType::kAppHang),
      get(fault::FaultType::kFrontendFailure));
  os << buf << "\n";
}

void print_series_csv(std::ostream& os, const std::vector<double>& series,
                      double from_s, double to_s, std::size_t max_rows) {
  const std::size_t first =
      std::min(series.size(), static_cast<std::size_t>(std::max(0.0, from_s)));
  const std::size_t last =
      std::min(series.size(), static_cast<std::size_t>(std::max(0.0, to_s)));
  if (last <= first) return;
  const std::size_t span = last - first;
  const std::size_t step = std::max<std::size_t>(1, span / max_rows);
  os << "t_seconds,requests_per_second\n";
  for (std::size_t i = first; i < last; i += step) {
    // Average over the step to keep the downsampled series faithful.
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t j = i; j < std::min(last, i + step); ++j, ++n) {
      sum += series[j];
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zu,%.1f\n", i, n ? sum / n : 0.0);
    os << buf;
  }
}

std::string ascii_bar(double value, double scale, int width) {
  const int n = scale > 0
                    ? std::clamp(static_cast<int>(value / scale * width), 0,
                                 width)
                    : 0;
  std::string out(static_cast<std::size_t>(n), '#');
  out.resize(static_cast<std::size_t>(width), ' ');
  return out;
}

std::size_t count_ncsl(const std::vector<std::string>& paths) {
  std::size_t count = 0;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto start = line.find_first_not_of(" \t");
      if (start == std::string::npos) continue;          // blank
      if (line.compare(start, 2, "//") == 0) continue;   // comment
      ++count;
    }
  }
  return count;
}

std::vector<std::string> subsystem_sources(const std::string& base,
                                           const std::string& subsystem) {
  std::vector<std::string> files;
  auto add = [&](const char* rel) { files.push_back(base + "/" + rel); };
  if (subsystem == "membership") {
    add("availsim/membership/board.hpp");
    add("availsim/membership/messages.hpp");
    add("availsim/membership/member_server.hpp");
    add("availsim/membership/member_server.cpp");
    add("availsim/membership/client_lib.hpp");
    add("availsim/membership/client_lib.cpp");
  } else if (subsystem == "qmon") {
    add("availsim/qmon/qmon.hpp");
    add("availsim/qmon/qmon.cpp");
  } else if (subsystem == "fme") {
    add("availsim/fme/fme.hpp");
    add("availsim/fme/fme.cpp");
    add("availsim/fme/sfme.hpp");
    add("availsim/fme/sfme.cpp");
  } else if (subsystem == "press") {
    add("availsim/press/press_node.hpp");
    add("availsim/press/press_node.cpp");
    add("availsim/press/cache.hpp");
    add("availsim/press/cache.cpp");
    add("availsim/press/directory.hpp");
    add("availsim/press/directory.cpp");
    add("availsim/press/messages.hpp");
    add("availsim/press/params.hpp");
  }
  return files;
}

}  // namespace availsim::harness
