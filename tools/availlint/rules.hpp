#pragma once
// availlint rules configuration: a small line-oriented config file
// (tools/availlint/availlint.rules) declaring the repo's layer table and
// the per-rule path allowlists.  Checked in next to the tool so every
// invariant the linter enforces is reviewable in one place.
//
// Grammar (one directive per line, '#' starts a comment):
//   scan <dir>                    directory (relative to root) to lint
//   layer <name> <path-prefix>    assign files under prefix to a layer
//   dep <from> <to> [src-only]    allowed include edge between layers;
//                                 src-only: allowed from .cpp files only
//   allow <key> <path-prefix>     allowlist for a banned-pattern rule;
//                                 key in {rand, clock, getenv, thread,
//                                 iostream}
//   ordered-domain <path-prefix>  det-unordered-iter applies under these
//   forbid-function <path-prefix> det-std-function applies under these
//   exempt-layering <path-prefix> files exempt from layer checks
//   hot-path <name>               hot-alloc roster root: a function name,
//                                 optionally qualified (Class::method)
//   hot-domain <path-prefix>      hot-alloc findings reported under these

#include <map>
#include <set>
#include <string>
#include <vector>

namespace availlint {

struct LayerDep {
  std::string from;
  std::string to;
  bool src_only = false;  // edge allowed only from non-header files
};

struct Config {
  std::vector<std::string> scan_dirs;
  // Ordered longest-prefix-wins mapping path prefix -> layer name.
  std::vector<std::pair<std::string, std::string>> layers;
  std::vector<LayerDep> deps;
  // rule key ("rand", "clock", ...) -> path prefixes where it is allowed.
  std::map<std::string, std::vector<std::string>> allow;
  std::vector<std::string> ordered_domains;
  std::vector<std::string> forbid_function;
  std::vector<std::string> exempt_layering;
  std::vector<std::string> hot_paths;
  std::vector<std::string> hot_domains;

  // Longest matching declared layer for a repo-relative path, or "".
  std::string layer_of(const std::string& path) const;
  bool allowed(const std::string& key, const std::string& path) const;
  bool dep_allowed(const std::string& from, const std::string& to,
                   bool from_header) const;
};

// Parses the config text.  On failure returns false and sets *error.
bool parse_rules(const std::string& text, Config* out, std::string* error);

bool path_has_prefix(const std::string& path, const std::string& prefix);

}  // namespace availlint
