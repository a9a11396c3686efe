#include "engine.hpp"

#include <algorithm>
// Linter self-timing only (pass_timings()); never feeds findings.
#include <chrono>
#include <functional>
#include <set>

namespace availlint {
namespace {

bool is_header_path(const std::string& path) {
  auto ends_with = [&](const char* suf) {
    const std::string s(suf);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with(".hpp") || ends_with(".h") || ends_with(".hh");
}

const std::set<std::string>& rand_idents() {
  static const std::set<std::string> s = {"rand", "srand", "rand_r",
                                          "drand48", "lrand48",
                                          "random_device"};
  return s;
}

const std::set<std::string>& clock_idents() {
  static const std::set<std::string> s = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "localtime", "gmtime"};
  return s;
}

const std::set<std::string>& thread_idents() {
  static const std::set<std::string> s = {
      "thread",         "jthread",       "mutex",
      "recursive_mutex", "timed_mutex",  "shared_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",         "atomic_flag",   "lock_guard",
      "unique_lock",    "scoped_lock",   "shared_lock",
      "future",         "promise",       "async",
      "barrier",        "latch",         "counting_semaphore",
      "binary_semaphore"};
  return s;
}

const std::set<std::string>& thread_headers() {
  static const std::set<std::string> s = {
      "thread", "mutex", "atomic", "future", "condition_variable",
      "shared_mutex", "barrier", "latch", "semaphore", "stop_token"};
  return s;
}

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> s = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return s;
}

bool under_any(const std::string& path, const std::vector<std::string>& pfx) {
  for (const std::string& p : pfx) {
    if (path_has_prefix(path, p)) return true;
  }
  return false;
}

// Outcome of looking for an "availlint: <tag>(<reason>)" annotation in a
// line's comment text.
enum class TagState { kAbsent, kReasoned, kBlank };

TagState find_tag(const std::string& comment, const std::string& tag,
                  std::string* reason) {
  const std::string needle = "availlint: " + tag + "(";
  std::size_t p = comment.find(needle);
  if (p == std::string::npos) return TagState::kAbsent;
  std::size_t open = p + needle.size();
  std::size_t close = comment.find(')', open);
  const std::string r =
      close == std::string::npos ? "" : comment.substr(open, close - open);
  bool blank = true;
  for (char c : r) {
    if (c != ' ' && c != '\t') blank = false;
  }
  if (blank) return TagState::kBlank;
  *reason = r;
  return TagState::kReasoned;
}


}  // namespace

void Engine::add_file(const std::string& path, const std::string& text) {
  FileEntry e;
  e.path = path;
  e.lex = lex(text);
  e.structure = parse_structure(e.lex);
  e.is_header = is_header_path(path);
  by_path_[path] = files_.size();
  files_.push_back(std::move(e));
}

void Engine::diag(const std::string& file, int line, const std::string& rule,
                  const std::string& message) {
  diags_.push_back(Diagnostic{file, line, rule, message});
}

bool Engine::suppressed(const FileEntry& f, int line, const std::string& tag,
                        const std::string& rule) {
  std::string reason;
  TagState st = find_tag(f.lex.comment_on(line), tag, &reason);
  if (st == TagState::kAbsent) {
    // NOLINTNEXTLINE-style: the annotation may sit on the line above.
    st = find_tag(f.lex.comment_on(line - 1), tag, &reason);
    if (st == TagState::kAbsent) return false;
  }
  if (st == TagState::kBlank) {
    diag(f.path, line, rule,
         tag + " suppression must give a reason: availlint: " + tag +
             "(<reason>)");
    return true;
  }
  suppressed_.push_back(SuppressedFinding{f.path, line, rule, reason});
  return true;
}

std::vector<Diagnostic> Engine::run() {
  diags_.clear();
  suppressed_.clear();
  timings_.clear();

  auto timed = [&](const char* name, auto&& pass) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    timings_.emplace_back(
        name, std::chrono::duration<double, std::milli>(t1 - t0).count());
  };

  timed("layer-table", [&] { check_layer_table_acyclic(); });
  timed("banned-tokens", [&] {
    for (const FileEntry& f : files_) check_banned_tokens(f);
  });
  timed("unordered-iter", [&] {
    for (const FileEntry& f : files_) check_unordered_iteration(f);
  });
  timed("layering", [&] {
    for (const FileEntry& f : files_) check_layering(f);
  });
  timed("hygiene", [&] {
    for (const FileEntry& f : files_) check_hygiene(f);
  });
  timed("hot-alloc", [&] { check_hot_alloc(); });
  timed("include-cycles", [&] { check_include_cycles(); });

  auto order = [](const auto& a, const auto& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  };
  std::sort(diags_.begin(), diags_.end(), order);
  std::sort(suppressed_.begin(), suppressed_.end(), order);
  return diags_;
}

// ---------------------------------------------------------------------------
// Banned-token rules
// ---------------------------------------------------------------------------

void Engine::check_banned_tokens(const FileEntry& f) {
  const auto& toks = f.lex.tokens;
  const bool allow_rand = cfg_.allowed("rand", f.path);
  const bool allow_clock = cfg_.allowed("clock", f.path);
  const bool allow_getenv = cfg_.allowed("getenv", f.path);
  const bool allow_thread = cfg_.allowed("thread", f.path);
  const bool forbid_fn = under_any(f.path, cfg_.forbid_function);

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!t.is_identifier) continue;
    const bool member_access =
        i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (member_access) continue;
    const std::string& prev = i > 0 ? toks[i - 1].text : std::string();
    const std::string& next =
        i + 1 < toks.size() ? toks[i + 1].text : std::string();

    if (!allow_rand && rand_idents().count(t.text)) {
      // `rand`/`srand` must look like a call or a std:: reference to count;
      // `random_device` is banned as a bare type name too.
      if (t.text == "random_device" || next == "(") {
        diag(f.path, t.line, "det-rand",
             "nondeterministic randomness source '" + t.text +
                 "' (use the seeded sim::Rng)");
      }
    }

    if (!allow_clock && clock_idents().count(t.text)) {
      diag(f.path, t.line, "det-clock",
           "wall-clock source '" + t.text +
               "' (simulation state must derive from sim::Time only)");
    }
    if (!allow_clock && (t.text == "time" || t.text == "clock") &&
        next == "(") {
      // Only the zero-arg / NULL-arg C forms are wall clocks; `x.time(...)`
      // member calls were already skipped above.
      const std::string& a1 =
          i + 2 < toks.size() ? toks[i + 2].text : std::string();
      const std::string& a2 =
          i + 3 < toks.size() ? toks[i + 3].text : std::string();
      const bool wall =
          a1 == ")" ||
          ((a1 == "0" || a1 == "NULL" || a1 == "nullptr") && a2 == ")");
      if (wall) {
        diag(f.path, t.line, "det-clock",
             "wall-clock call '" + t.text +
                 "()' (simulation state must derive from sim::Time only)");
      }
    }

    if (!allow_getenv &&
        (t.text == "getenv" || t.text == "secure_getenv")) {
      diag(f.path, t.line, "det-getenv",
           "environment read '" + t.text +
               "' outside the harness/bench allowlist");
    }

    if (!allow_thread && t.text == "std" && next == "::" &&
        i + 2 < toks.size() && thread_idents().count(toks[i + 2].text)) {
      diag(f.path, toks[i + 2].line, "det-thread",
           "threading primitive 'std::" + toks[i + 2].text +
               "' outside harness/campaign (the simulator is "
               "single-threaded by design)");
    }

    if (forbid_fn && t.text == "std" && next == "::" && i + 2 < toks.size() &&
        toks[i + 2].text == "function") {
      diag(f.path, toks[i + 2].line, "det-std-function",
           "std::function under a forbid-function path (use the SBO "
           "sim::EventFn instead)");
    }
  }

  if (!allow_thread) {
    for (const IncludeDirective& inc : f.lex.includes) {
      if (inc.angled && thread_headers().count(inc.path)) {
        diag(f.path, inc.line, "det-thread",
             "threading header <" + inc.path +
                 "> outside harness/campaign");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// det-unordered-iter
// ---------------------------------------------------------------------------

void Engine::collect_unordered(const LexedFile& lx,
                               std::map<std::string, int>* vars,
                               std::map<std::string, int>* fns) const {
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!unordered_types().count(toks[i].text)) continue;
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    // Match the template argument list; ">>" closes two levels.
    int depth = 0;
    for (; j < toks.size(); ++j) {
      const std::string& s = toks[j].text;
      if (s == "<") ++depth;
      else if (s == ">") --depth;
      else if (s == ">>") depth -= 2;
      else if (s == "<<") depth += 2;
      if (depth <= 0) break;
    }
    if (j >= toks.size()) continue;
    ++j;  // past the closing '>'
    // Skip ref/pointer/cv noise between the type and the declared name.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "&&" || toks[j].text == "const")) {
      ++j;
    }
    if (j >= toks.size() || !toks[j].is_identifier) continue;
    // Qualified names (Type::member definitions): take the last component.
    std::size_t name_idx = j;
    while (name_idx + 2 < toks.size() && toks[name_idx + 1].text == "::" &&
           toks[name_idx + 2].is_identifier) {
      name_idx += 2;
    }
    const std::string& name = toks[name_idx].text;
    const bool is_fn = name_idx + 1 < toks.size() &&
                       toks[name_idx + 1].text == "(";
    (is_fn ? fns : vars)->emplace(name, toks[name_idx].line);
  }
}

void Engine::check_unordered_iteration(const FileEntry& f) {
  if (!under_any(f.path, cfg_.ordered_domains)) return;

  std::map<std::string, int> vars, fns;
  collect_unordered(f.lex, &vars, &fns);
  // Members are declared in the paired header but iterated in the .cpp.
  if (!f.is_header) {
    std::size_t dot = f.path.rfind('.');
    if (dot != std::string::npos) {
      auto it = by_path_.find(f.path.substr(0, dot) + ".hpp");
      if (it != by_path_.end()) {
        collect_unordered(files_[it->second].lex, &vars, &fns);
      }
    }
  }
  if (vars.empty() && fns.empty()) return;

  const auto& toks = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    // Find the matching close paren and the top-level range ':'.
    int depth = 0;
    std::size_t close = i + 1;
    std::size_t colon = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& s = toks[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]" || s == "}") {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      } else if (s == ":" && depth == 1 && colon == 0) {
        colon = j;
      }
    }
    if (close <= i + 1) continue;

    std::string container;
    if (colon != 0) {
      // Range-for: flag when the range expression names an unordered
      // variable, calls an unordered-returning function, or spells an
      // unordered type inline.
      for (std::size_t j = colon + 1; j < close && container.empty(); ++j) {
        const Token& t = toks[j];
        if (!t.is_identifier) continue;
        const bool member_prev =
            toks[j - 1].text == "." || toks[j - 1].text == "->";
        const std::string& next =
            j + 1 < toks.size() ? toks[j + 1].text : std::string();
        if (vars.count(t.text) && next != "(") {
          container = t.text;
        } else if (fns.count(t.text) && next == "(") {
          container = t.text + "()";
        } else if (!member_prev && unordered_types().count(t.text)) {
          container = t.text;
        }
      }
    } else {
      // Iterator loop: `for (auto it = c.begin(); ...)`.
      for (std::size_t j = i + 2; j + 2 < close; ++j) {
        if (!toks[j].is_identifier || !vars.count(toks[j].text)) continue;
        if ((toks[j + 1].text == "." || toks[j + 1].text == "->") &&
            (toks[j + 2].text == "begin" || toks[j + 2].text == "cbegin")) {
          container = toks[j].text;
          break;
        }
      }
    }
    if (container.empty()) continue;

    if (suppressed(f, toks[i].line, "ordered-ok", "det-unordered-iter")) {
      continue;
    }
    diag(f.path, toks[i].line, "det-unordered-iter",
         "iteration over unordered container '" + container +
             "' in an ordered domain; hash order leaks into event/output "
             "order (sort first, or annotate the line with "
             "\"availlint: ordered-ok(<reason>)\")");
  }
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

void Engine::check_layering(const FileEntry& f) {
  if (under_any(f.path, cfg_.exempt_layering)) return;
  const std::string from = cfg_.layer_of(f.path);
  if (from.empty()) return;
  for (const IncludeDirective& inc : f.lex.includes) {
    if (inc.angled) continue;
    std::string to = cfg_.layer_of(inc.path);
    if (to.empty()) to = cfg_.layer_of("src/" + inc.path);
    if (to.empty()) continue;
    if (!cfg_.dep_allowed(from, to, f.is_header)) {
      std::string msg = "layer '" + from + "' may not include layer '" + to +
                        "' (" + inc.path + ")";
      if (cfg_.dep_allowed(from, to, /*from_header=*/false)) {
        msg += "; edge is src-only: allowed from .cpp files, not headers";
      }
      diag(f.path, inc.line, "layer-dep", msg);
    }
  }
}

void Engine::check_layer_table_acyclic() {
  // The declared layer graph, with src-only edges removed, is the header
  // dependency contract — it must be a DAG.
  std::map<std::string, std::vector<std::string>> adj;
  for (const LayerDep& d : cfg_.deps) {
    if (!d.src_only && d.from != d.to) adj[d.from].push_back(d.to);
  }
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::string cycle;

  std::function<bool(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const std::string& v : adj[u]) {
      if (color[v] == 1) {
        cycle = v;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          cycle += " -> " + *it;
          if (*it == v) break;
        }
        return true;
      }
      if (color[v] == 0 && dfs(v)) return true;
    }
    color[u] = 2;
    stack.pop_back();
    return false;
  };
  for (const auto& [u, _] : adj) {
    if (color[u] == 0 && dfs(u)) {
      diag("availlint.rules", 0, "layer-cycle",
           "declared header-layer graph has a cycle: " + cycle);
      return;
    }
  }
}

void Engine::check_include_cycles() {
  // Actual file-level include graph over the registered files.  #pragma
  // once keeps a cycle from hanging the preprocessor, but a cycle still
  // means the layering is rotten — report it.
  auto resolve = [&](const std::string& inc_path) -> int {
    auto it = by_path_.find("src/" + inc_path);
    if (it == by_path_.end()) it = by_path_.find(inc_path);
    return it == by_path_.end() ? -1 : static_cast<int>(it->second);
  };

  std::vector<int> color(files_.size(), 0);
  std::vector<int> stack;

  std::function<bool(int)> dfs = [&](int u) {
    color[u] = 1;
    stack.push_back(u);
    for (const IncludeDirective& inc : files_[u].lex.includes) {
      if (inc.angled) continue;
      const int v = resolve(inc.path);
      if (v < 0) continue;
      if (color[v] == 1) {
        std::string chain = files_[v].path;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          chain = files_[*it].path + " -> " + chain;
          if (*it == v) break;
        }
        diag(files_[u].path, inc.line, "layer-cycle",
             "include cycle: " + chain);
        return true;
      }
      if (color[v] == 0 && dfs(v)) return true;
    }
    color[u] = 2;
    stack.pop_back();
    return false;
  };
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (color[i] == 0 && dfs(static_cast<int>(i))) return;
  }
}

// ---------------------------------------------------------------------------
// Hygiene
// ---------------------------------------------------------------------------

void Engine::check_hygiene(const FileEntry& f) {
  const auto& toks = f.lex.tokens;

  if (f.is_header) {
    bool has_pragma_once = false;
    for (const std::string& line : f.lex.code_lines) {
      std::size_t p = line.find_first_not_of(" \t");
      if (p == std::string::npos || line[p] != '#') continue;
      std::size_t q = line.find("pragma", p);
      if (q == std::string::npos) continue;
      if (line.find("once", q) != std::string::npos) {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once) {
      diag(f.path, 1, "hyg-pragma-once", "header is missing #pragma once");
    }

    // `using namespace` at header scope leaks into every includer.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text == "using" && toks[i + 1].text == "namespace") {
        diag(f.path, toks[i].line, "hyg-using-namespace",
             "'using namespace' in a header pollutes every includer");
      }
    }
  }

  if (!cfg_.allowed("iostream", f.path)) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text == "std" && toks[i + 1].text == "::" &&
          (toks[i + 2].text == "cout" || toks[i + 2].text == "cerr" ||
           toks[i + 2].text == "clog")) {
        diag(f.path, toks[i].line, "hyg-iostream",
             "std::" + toks[i + 2].text +
                 " outside harness/bench/tools (library code must not "
                 "write to the console)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hot-alloc
// ---------------------------------------------------------------------------

void Engine::check_hot_alloc() {
  if (cfg_.hot_paths.empty()) return;
  const std::vector<std::string>& domains = cfg_.hot_domains;

  // Function table over the hot domains.  Reachability is name-based and
  // deliberately over-approximate: any identifier followed by '(' inside a
  // reachable body marks every same-named function reachable.
  struct Fn {
    std::size_t file = 0;
    const FunctionDef* def = nullptr;
    bool reachable = false;
  };
  std::vector<Fn> fns;
  std::map<std::string, std::vector<std::size_t>> by_bare;
  std::map<std::string, std::vector<std::size_t>> by_qual;
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    if (!under_any(files_[fi].path, domains)) continue;
    for (const FunctionDef& fn : files_[fi].structure.functions) {
      const std::size_t idx = fns.size();
      fns.push_back(Fn{fi, &fn, false});
      by_bare[fn.name].push_back(idx);
      if (!fn.class_name.empty()) {
        by_qual[fn.class_name + "::" + fn.name].push_back(idx);
      }
    }
  }

  // Seed the roster.  "Class::fn" pins the class; a bare name marks every
  // function with that name.
  std::vector<std::size_t> work;
  auto mark = [&](std::size_t idx) {
    if (!fns[idx].reachable) {
      fns[idx].reachable = true;
      work.push_back(idx);
    }
  };
  // A root that names no function drops its whole call tree from the
  // check, so it is a finding. Only a run that lints every hot domain can
  // tell: a single fixture file resolves almost nothing.
  const bool whole_domain = std::all_of(
      domains.begin(), domains.end(), [&](const std::string& d) {
        return std::any_of(files_.begin(), files_.end(),
                           [&](const FileEntry& f) {
                             return path_has_prefix(f.path, d);
                           });
      });
  for (const std::string& root : cfg_.hot_paths) {
    auto qit = by_qual.find(root);
    if (qit != by_qual.end()) {
      for (std::size_t idx : qit->second) mark(idx);
      continue;
    }
    auto bit = by_bare.find(root);
    if (bit != by_bare.end()) {
      for (std::size_t idx : bit->second) mark(idx);
    } else if (whole_domain) {
      diag("availlint.rules", 0, "hot-roster",
           "hot-path '" + root +
               "' names no function in the hot domains; its call tree "
               "goes unchecked (renamed or deleted?)");
    }
  }

  // BFS over call edges.
  while (!work.empty()) {
    const Fn fn = fns[work.back()];
    work.pop_back();
    const auto& toks = files_[fn.file].lex.tokens;
    const std::size_t end = std::min(fn.def->body_end, toks.size());
    for (std::size_t j = fn.def->body_begin; j < end; ++j) {
      if (!toks[j].is_identifier) continue;
      if (j + 1 >= toks.size() || toks[j + 1].text != "(") continue;
      auto it = by_bare.find(toks[j].text);
      if (it == by_bare.end()) continue;
      for (std::size_t idx : it->second) mark(idx);
    }
  }

  // Node-container member fields per class, for insertion detection.
  std::map<std::string, std::map<std::string, bool>> node_fields;
  for (const FileEntry& f : files_) {
    if (!under_any(f.path, domains)) continue;
    for (const ClassInfo& cls : f.structure.classes) {
      for (const FieldInfo& fld : cls.fields) {
        if (fld.node_container) {
          node_fields[cls.name][fld.name] = fld.map_like;
        }
      }
    }
  }

  // Parameters and fields typed std::function (or an alias of it): an
  // inline lambda passed or assigned to one is converted implicitly, with
  // no std::function token at the call site, and heap-allocates once its
  // capture outgrows the small buffer. Name-based, like reachability.
  std::set<std::string> aliases;
  for (const FileEntry& f : files_) {
    if (!under_any(f.path, domains)) continue;
    aliases.insert(f.structure.function_aliases.begin(),
                   f.structure.function_aliases.end());
  }
  auto callable = [&](const std::string& type) {
    return type == "std::function" || aliases.count(type) > 0;
  };
  std::map<std::string, std::set<std::size_t>> callable_params;
  std::set<std::string> callable_fields;
  for (const FileEntry& f : files_) {
    if (!under_any(f.path, domains)) continue;
    for (const FunctionSig& sig : f.structure.signatures) {
      for (std::size_t k = 0; k < sig.param_types.size(); ++k) {
        if (callable(sig.param_types[k])) callable_params[sig.name].insert(k);
      }
    }
    for (const ClassInfo& cls : f.structure.classes) {
      for (const FieldInfo& fld : cls.fields) {
        if (callable(fld.type)) callable_fields.insert(fld.name);
      }
    }
  }

  static const std::set<std::string> inserters = {
      "insert",       "emplace",       "emplace_hint", "try_emplace",
      "push_back",    "push_front",    "emplace_back", "emplace_front"};

  for (const Fn& fn : fns) {
    if (!fn.reachable) continue;
    const FileEntry& f = files_[fn.file];
    const auto& toks = f.lex.tokens;
    const std::size_t end = std::min(fn.def->body_end, toks.size());
    const std::string qual = fn.def->class_name.empty()
                                 ? fn.def->name
                                 : fn.def->class_name + "::" + fn.def->name;
    const auto* fields = [&]() -> const std::map<std::string, bool>* {
      auto it = node_fields.find(fn.def->class_name);
      return it == node_fields.end() ? nullptr : &it->second;
    }();

    auto report = [&](int line, const std::string& what) {
      if (this->suppressed(f, line, "hot-ok", "hot-alloc")) return;
      diag(f.path, line, "hot-alloc",
           what + " in '" + qual +
               "', which is reachable from the hot-path roster; hoist or "
               "pool the allocation, use a flat container, or annotate the "
               "line with \"availlint: hot-ok(<reason>)\"");
    };

    // Flags every inline lambda among the arguments of the call whose '('
    // is at `open`, at a position in `params`.
    auto check_call = [&](std::size_t open, const std::string& callee,
                          const std::set<std::size_t>& params) {
      std::size_t arg = 0;
      int depth = 0;
      for (std::size_t k = open + 1; k < end; ++k) {
        const std::string& s = toks[k].text;
        if (depth == 0 && s == "[" &&
            (toks[k - 1].text == "(" || toks[k - 1].text == ",") &&
            params.count(arg)) {
          report(toks[k].line,
                 "lambda converted to std::function (parameter " +
                     std::to_string(arg + 1) + " of '" + callee +
                     "'; heap-allocates once the capture outgrows its "
                     "small buffer)");
        }
        if (s == "(" || s == "[" || s == "{") {
          ++depth;
        } else if (s == ")" || s == "]" || s == "}") {
          if (depth-- == 0) return;
        } else if (s == "," && depth == 0) {
          ++arg;
        }
      }
    };

    for (std::size_t j = fn.def->body_begin; j < end; ++j) {
      const Token& t = toks[j];
      if (!t.is_identifier) continue;
      const std::string& prev =
          j > fn.def->body_begin ? toks[j - 1].text : std::string();
      const std::string& next =
          j + 1 < toks.size() ? toks[j + 1].text : std::string();
      // Implicit lambda -> std::function conversions; member access is
      // the common spelling (`options.on_refused = [...]`,
      // `disk->submit(n, [...])`), so these run before the skip below.
      if (next == "=" && j + 2 < end && toks[j + 2].text == "[" &&
          callable_fields.count(t.text)) {
        report(toks[j + 2].line,
               "lambda assigned to std::function field '" + t.text +
                   "' (heap-allocates once the capture outgrows its small "
                   "buffer)");
      } else if (next == "(") {
        auto cit = callable_params.find(t.text);
        if (cit != callable_params.end()) {
          check_call(j + 1, t.text, cit->second);
        }
      }
      if (prev == "." || prev == "->" || prev == "operator") continue;

      if (t.text == "new") {
        // `new (addr) T` is placement new: it constructs into existing
        // storage and allocates nothing. Only plain `new T` hits the heap.
        if (next != "(") report(t.line, "heap allocation ('new')");
      } else if ((t.text == "make_unique" || t.text == "make_shared") &&
                 (next == "<" || next == "(")) {
        report(t.line, "heap allocation ('std::" + t.text + "')");
      } else if (t.text == "function" && prev == "::" &&
                 j >= 2 && toks[j - 2].text == "std") {
        report(t.line,
               "std::function construction (heap-allocating, type-erased)");
      } else if (fields != nullptr) {
        auto fit = fields->find(t.text);
        if (fit == fields->end()) continue;
        if ((next == "." || next == "->") && j + 3 < toks.size() &&
            inserters.count(toks[j + 2].text) && toks[j + 3].text == "(") {
          report(t.line, "node-based container insertion ('" + t.text +
                             next + toks[j + 2].text + "')");
        } else if (next == "[" && fit->second) {
          report(t.line, "map operator[] ('" + t.text +
                             "') — default-inserts a node on every miss");
        }
      }
    }
  }
}

}  // namespace availlint
