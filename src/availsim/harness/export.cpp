#include "availsim/harness/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "availsim/model/template.hpp"

namespace availsim::harness {

std::string results_dir() {
  const char* env = std::getenv("AVAILSIM_CACHE_DIR");
  std::string dir = env ? env : "availsim_results";
  // An unwritable location is not an error here: the exporters then fail
  // and report it through their return value.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

bool export_model_csv(const model::SystemModel& model,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "fault,mttf_s,mttr_s,components";
  for (int s = 0; s < model::kStageCount; ++s) {
    out << ",t_" << model::stage_name(static_cast<model::Stage>(s));
  }
  for (int s = 0; s < model::kStageCount; ++s) {
    out << ",tput_" << model::stage_name(static_cast<model::Stage>(s));
  }
  out << ",unavailability\n";
  out.precision(10);
  for (const auto& f : model.faults()) {
    out << fault::to_string(f.type) << "," << f.mttf_seconds << ","
        << f.mttr_seconds << "," << f.components;
    for (int s = 0; s < model::kStageCount; ++s) out << "," << f.stages.duration[s];
    for (int s = 0; s < model::kStageCount; ++s) {
      out << "," << f.stages.throughput[s];
    }
    out << "," << f.unavailability(model.t0()) << "\n";
  }
  return static_cast<bool>(out);
}

bool export_breakdown_csv(
    const std::vector<std::pair<std::string, model::SystemModel>>& models,
    const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "config";
  for (auto t : fault::all_fault_types()) out << "," << fault::to_string(t);
  out << ",total\n";
  out.precision(10);
  for (const auto& [name, m] : models) {
    out << name;
    const auto by = m.unavailability_by_fault();
    for (auto t : fault::all_fault_types()) {
      auto it = by.find(t);
      out << "," << (it == by.end() ? 0.0 : it->second);
    }
    out << "," << m.unavailability() << "\n";
  }
  return static_cast<bool>(out);
}

std::string breakdown_json(
    const std::vector<std::pair<std::string, model::SystemModel>>& models) {
  char num[64];
  std::string out = "[\n";
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto& [name, m] = models[i];
    out += "  {\"config\": \"" + name + "\"";
    const auto by = m.unavailability_by_fault();
    for (auto t : fault::all_fault_types()) {
      auto it = by.find(t);
      std::snprintf(num, sizeof(num), "%.10g",
                    it == by.end() ? 0.0 : it->second);
      out += std::string(", \"") + fault::to_string(t) + "\": " + num;
    }
    std::snprintf(num, sizeof(num), "%.10g", m.unavailability());
    out += std::string(", \"total\": ") + num + "}";
    if (i + 1 < models.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

bool export_breakdown_json(
    const std::vector<std::pair<std::string, model::SystemModel>>& models,
    const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << breakdown_json(models);
  return static_cast<bool>(out);
}

}  // namespace availsim::harness
