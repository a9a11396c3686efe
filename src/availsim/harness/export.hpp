#pragma once

#include <string>
#include <utility>
#include <vector>

#include "availsim/model/availability_model.hpp"

namespace availsim::harness {

/// Directory the benches write their plot-ready CSV/JSON to:
/// AVAILSIM_CACHE_DIR when set, otherwise ./availsim_results. Created if
/// missing.
std::string results_dir();

/// Writes one characterized system as CSV: a row per fault class with its
/// MTTF/MTTR/component count, the seven stage durations and throughputs,
/// and the resulting unavailability contribution. Plot-ready.
bool export_model_csv(const model::SystemModel& model,
                      const std::string& path);

/// Writes a configurations x fault-classes unavailability matrix (the
/// stacked-bar data of the paper's Figures 7/9/10).
bool export_breakdown_csv(
    const std::vector<std::pair<std::string, model::SystemModel>>& models,
    const std::string& path);

/// Same matrix as export_breakdown_csv, as a JSON array of objects. The
/// aggregated-campaign artifact the parallel runner's equivalence check
/// compares: field order and formatting are fixed, so the bytes depend
/// only on the models, never on how many jobs produced them.
std::string breakdown_json(
    const std::vector<std::pair<std::string, model::SystemModel>>& models);
bool export_breakdown_json(
    const std::vector<std::pair<std::string, model::SystemModel>>& models,
    const std::string& path);

}  // namespace availsim::harness
