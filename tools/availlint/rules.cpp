#include "rules.hpp"

#include <sstream>

namespace availlint {

bool path_has_prefix(const std::string& path, const std::string& prefix) {
  if (prefix.empty() || path.size() < prefix.size()) return false;
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  // Prefix must end at a path-component boundary unless it names the file
  // exactly or itself ends with '/'.
  return path.size() == prefix.size() || prefix.back() == '/' ||
         path[prefix.size()] == '/' || path[prefix.size()] == '.';
}

std::string Config::layer_of(const std::string& path) const {
  std::string best_layer;
  std::size_t best_len = 0;
  for (const auto& [prefix, name] : layers) {
    if (path_has_prefix(path, prefix) && prefix.size() >= best_len) {
      best_len = prefix.size();
      best_layer = name;
    }
  }
  return best_layer;
}

bool Config::allowed(const std::string& key, const std::string& path) const {
  auto it = allow.find(key);
  if (it == allow.end()) return false;
  for (const std::string& prefix : it->second) {
    if (path_has_prefix(path, prefix)) return true;
  }
  return false;
}

bool Config::dep_allowed(const std::string& from, const std::string& to,
                         bool from_header) const {
  if (from == to) return true;
  for (const LayerDep& d : deps) {
    if (d.from == from && d.to == to) {
      return !d.src_only || !from_header;
    }
  }
  return false;
}

bool parse_rules(const std::string& text, Config* out, std::string* error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    if (error) {
      *error = "availlint.rules:" + std::to_string(lineno) + ": " + msg;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;
    if (directive == "scan") {
      std::string dir;
      if (!(ls >> dir)) return fail("scan needs a directory");
      out->scan_dirs.push_back(dir);
    } else if (directive == "layer") {
      std::string name, prefix;
      if (!(ls >> name >> prefix)) return fail("layer needs <name> <prefix>");
      out->layers.emplace_back(prefix, name);
    } else if (directive == "dep") {
      LayerDep d;
      if (!(ls >> d.from >> d.to)) return fail("dep needs <from> <to>");
      std::string flag;
      if (ls >> flag) {
        if (flag != "src-only") return fail("unknown dep flag: " + flag);
        d.src_only = true;
      }
      out->deps.push_back(std::move(d));
    } else if (directive == "allow") {
      std::string key, prefix;
      if (!(ls >> key >> prefix)) return fail("allow needs <key> <prefix>");
      if (key != "rand" && key != "clock" && key != "getenv" &&
          key != "thread" && key != "iostream") {
        return fail("unknown allow key: " + key);
      }
      out->allow[key].push_back(prefix);
    } else if (directive == "ordered-domain") {
      std::string prefix;
      if (!(ls >> prefix)) return fail("ordered-domain needs a prefix");
      out->ordered_domains.push_back(prefix);
    } else if (directive == "forbid-function") {
      std::string prefix;
      if (!(ls >> prefix)) return fail("forbid-function needs a prefix");
      out->forbid_function.push_back(prefix);
    } else if (directive == "exempt-layering") {
      std::string prefix;
      if (!(ls >> prefix)) return fail("exempt-layering needs a prefix");
      out->exempt_layering.push_back(prefix);
    } else if (directive == "hot-path") {
      std::string name;
      if (!(ls >> name)) return fail("hot-path needs a function name");
      out->hot_paths.push_back(name);
    } else if (directive == "hot-domain") {
      std::string prefix;
      if (!(ls >> prefix)) return fail("hot-domain needs a prefix");
      out->hot_domains.push_back(prefix);
    } else {
      return fail("unknown directive: " + directive);
    }
  }
  // Declared layer names used in deps must exist.
  std::set<std::string> names;
  for (const auto& [prefix, name] : out->layers) names.insert(name);
  for (const LayerDep& d : out->deps) {
    if (!names.count(d.from) || !names.count(d.to)) {
      lineno = 0;
      return fail("dep references undeclared layer: " + d.from + " -> " +
                  d.to);
    }
  }
  return true;
}

}  // namespace availlint
