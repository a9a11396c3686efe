#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "availsim/model/availability_model.hpp"

namespace availsim::harness {

/// Formats an unavailability value the way the paper's figures label it
/// (e.g. "0.0049" with the availability alongside: "99.51%").
std::string format_unavailability(double u);
std::string format_availability_percent(double availability);

/// Prints the per-fault-type unavailability breakdown of a configuration
/// (one stacked bar of the paper's Figure 7/9/10).
void print_breakdown(std::ostream& os, const std::string& name,
                     const model::SystemModel& model);

/// Header matching print_breakdown's columns.
void print_breakdown_header(std::ostream& os);

/// Prints a req/s time series as "t,rps" CSV rows limited to [from, to)
/// seconds (Figure-4-style timelines), downsampled to `max_rows`.
void print_series_csv(std::ostream& os, const std::vector<double>& series,
                      double from_s, double to_s, std::size_t max_rows = 400);

/// Renders a simple ASCII bar: value/scale of width `width`.
std::string ascii_bar(double value, double scale, int width = 48);

/// Non-comment source lines (NCSL) across files, for the paper's Table 2
/// (implementation-effort accounting). Counts lines that are neither blank
/// nor pure '//' comments.
std::size_t count_ncsl(const std::vector<std::string>& paths);

/// Lists the repository-relative source files of each HA subsystem; base
/// is the directory containing the availsim sources.
std::vector<std::string> subsystem_sources(const std::string& base,
                                           const std::string& subsystem);

}  // namespace availsim::harness
