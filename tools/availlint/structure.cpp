#include "structure.hpp"

#include <set>

namespace availlint {
namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

// Statement-starting keywords that can never begin a member-field
// declaration; the whole statement is skipped.
const std::set<std::string>& non_field_starters() {
  static const std::set<std::string> s = {"using", "typedef", "friend",
                                          "static_assert", "extern"};
  return s;
}

// Containers that allocate one heap node per element.  deque is excluded
// on purpose: it allocates in chunks, not per element.
const std::set<std::string>& node_container_types() {
  static const std::set<std::string> s = {
      "map",  "multimap", "unordered_map", "unordered_multimap",
      "set",  "multiset", "unordered_set", "unordered_multiset",
      "list", "forward_list"};
  return s;
}

const std::set<std::string>& map_like_types() {
  static const std::set<std::string> s = {"map", "unordered_map"};
  return s;
}

// Specifiers skipped when picking a declaration's nominal type.
const std::set<std::string>& type_keywords() {
  static const std::set<std::string> s = {
      "const",    "volatile", "typename", "struct",    "class",
      "enum",     "unsigned", "signed",   "mutable",   "constexpr",
      "static",   "inline",   "register"};
  return s;
}

struct Parser {
  const std::vector<Token>& toks;
  FileStructure out;

  struct Scope {
    enum Kind { kNamespace, kClass };
    Kind kind;
    int class_index = -1;  // into out.classes when kind == kClass
  };
  std::vector<Scope> scopes;

  explicit Parser(const LexedFile& lex) : toks(lex.tokens) {
    scopes.push_back(Scope{Scope::kNamespace, -1});
  }

  const std::string& text(std::size_t i) const {
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
  }
  bool is_ident(std::size_t i) const {
    return i < toks.size() && toks[i].is_identifier;
  }

  // i at an opening ( [ {; returns the index just past the matching closer.
  std::size_t skip_balanced(std::size_t i) {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      const std::string& s = text(i);
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]" || s == "}") {
        if (--depth == 0) return i + 1;
      }
    }
    return toks.size();
  }

  // i at '<'; returns the index just past the matching '>'.
  std::size_t skip_angles(std::size_t i) {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      const std::string& s = text(i);
      if (s == "<") ++depth;
      else if (s == "<<") depth += 2;
      else if (s == ">") {
        if (--depth <= 0) return i + 1;
      } else if (s == ">>") {
        depth -= 2;
        if (depth <= 0) return i + 1;
      } else if (s == "(" || s == "[" || s == "{") {
        i = skip_balanced(i) - 1;
      } else if (s == ";") {
        return i;  // runaway '<' was a comparison; bail at the statement end
      }
    }
    return toks.size();
  }

  bool is_std_function(std::size_t k) const {
    return text(k) == "function" && k >= 2 && text(k - 1) == "::" &&
           text(k - 2) == "std";
  }

  // Nominal type of the declaration in tokens [begin, end): see
  // FunctionSig::param_types.
  std::string nominal_type(std::size_t begin, std::size_t end) const {
    std::vector<std::size_t> idents;
    int depth = 0;
    for (std::size_t k = begin; k < end; ++k) {
      const std::string& s = text(k);
      if (depth == 0 && s == "=") break;  // default argument
      if (s == "<" || s == "(" || s == "[" || s == "{") {
        ++depth;
      } else if (s == ">" || s == ")" || s == "]" || s == "}") {
        --depth;
      } else if (s == ">>") {
        depth -= 2;
      } else if (depth == 0 && is_ident(k) && !type_keywords().count(s)) {
        if (is_std_function(k)) return "std::function";
        idents.push_back(k);
      }
    }
    // A trailing unqualified identifier after the type is the declared name.
    if (idents.size() >= 2 && text(idents.back() - 1) != "::") {
      idents.pop_back();
    }
    return idents.empty() ? std::string() : text(idents.back());
  }

  // Nominal type of every parameter in the list opening at `open`.
  std::vector<std::string> param_types(std::size_t open) const {
    std::vector<std::string> out;
    std::size_t seg = open + 1;
    int depth = 0;
    for (std::size_t k = open + 1; k < toks.size(); ++k) {
      const std::string& s = text(k);
      const bool closes = depth == 0 && s == ")";
      if (closes || (depth == 0 && s == ",")) {
        if (k > seg) out.push_back(nominal_type(seg, k));
        seg = k + 1;
        if (closes) break;
        continue;
      }
      if (s == "(" || s == "[" || s == "{" || s == "<") ++depth;
      else if (s == ")" || s == "]" || s == "}" || s == ">") --depth;
      else if (s == ">>") depth -= 2;
    }
    return out;
  }

  void record_signature(std::size_t fn_paren) {
    const std::string name = function_name(fn_paren);
    if (name.empty()) return;
    out.signatures.push_back(FunctionSig{name, param_types(fn_paren)});
  }

  std::size_t skip_to_semicolon(std::size_t i) {
    for (; i < toks.size(); ++i) {
      const std::string& s = text(i);
      if (s == "(" || s == "[" || s == "{") i = skip_balanced(i) - 1;
      else if (s == ";") return i + 1;
    }
    return toks.size();
  }

  // Preprocessor directive: skip the rest of the physical line (and
  // backslash-continued lines).
  std::size_t skip_preprocessor(std::size_t i) {
    int line = toks[i].line;
    bool continued = false;
    for (; i < toks.size(); ++i) {
      if (toks[i].line != line) {
        if (!continued) return i;
        line = toks[i].line;
        continued = false;
      }
      if (text(i) == "\\") continued = true;
    }
    return toks.size();
  }

  std::size_t parse_namespace(std::size_t i) {
    ++i;  // past 'namespace'
    while (is_ident(i) || text(i) == "::") ++i;
    if (text(i) == "{") {
      scopes.push_back(Scope{Scope::kNamespace, -1});
      return i + 1;
    }
    if (text(i) == "=") return skip_to_semicolon(i);  // namespace alias
    return i + 1;
  }

  std::size_t skip_enum(std::size_t i) {
    ++i;  // past 'enum'
    while (i < toks.size() && text(i) != "{" && text(i) != ";") ++i;
    if (text(i) == "{") i = skip_balanced(i);
    return skip_to_semicolon(i);
  }

  std::size_t parse_class(std::size_t i) {
    std::size_t j = i + 1;
    while (text(j) == "[") j = skip_balanced(j);  // [[attributes]]
    std::string name;
    if (is_ident(j)) {
      name = text(j);
      ++j;
      if (text(j) == "<") j = skip_angles(j);  // specialization
    }
    // Scan past 'final' / base clause to the body or the semicolon.
    while (j < toks.size() && text(j) != "{" && text(j) != ";") {
      if (text(j) == "<") j = skip_angles(j);
      else if (text(j) == "(") j = skip_balanced(j);
      else ++j;
    }
    if (text(j) != "{") return j + 1;  // forward declaration
    if (name.empty()) {
      // Anonymous struct/union: skip the whole body.
      return skip_to_semicolon(skip_balanced(j) - 1);
    }
    ClassInfo info;
    info.name = name;
    out.classes.push_back(std::move(info));
    Scope s;
    s.kind = Scope::kClass;
    s.class_index = static_cast<int>(out.classes.size()) - 1;
    scopes.push_back(s);
    return j + 1;
  }

  // Splits the declarator token indices (top-level, pre-initializer) into
  // comma-separated segments and records one field per segment.
  void add_fields(const std::vector<std::size_t>& decl, int class_index) {
    ClassInfo& cls = out.classes[static_cast<std::size_t>(class_index)];
    std::size_t seg_start = 0;
    bool first_segment = true;
    std::string type;  // `int a_, b_;`: later declarators share the type
    for (std::size_t k = 0; k <= decl.size(); ++k) {
      const bool at_end = k == decl.size();
      if (!at_end && text(decl[k]) != ",") continue;
      // Segment [seg_start, k).
      std::size_t name_idx = npos;
      std::size_t type_idx = npos;
      bool node = false;
      bool map_like = false;
      for (std::size_t m = seg_start; m < k; ++m) {
        const std::size_t ti = decl[m];
        if (toks[ti].is_identifier) {
          type_idx = name_idx;
          name_idx = ti;
          // The container keyword sits at top level, before its '<'; the
          // declared name comes later and overwrites name_idx.
          if (node_container_types().count(text(ti))) node = true;
          if (map_like_types().count(text(ti))) map_like = true;
        }
      }
      // The first declarator needs at least a type and a name; later ones
      // (`int a_, b_;`) are just a name.
      const std::size_t min_tokens = first_segment ? 2 : 1;
      if (first_segment && type_idx != npos) {
        type = is_std_function(type_idx) ? "std::function" : text(type_idx);
      }
      if (name_idx != npos && k - seg_start >= min_tokens) {
        FieldInfo f;
        f.name = text(name_idx);
        f.node_container = node;
        f.map_like = map_like;
        f.type = type;
        cls.fields.push_back(std::move(f));
      }
      seg_start = k + 1;
      first_segment = false;
    }
  }

  // Parses one declaration/definition statement starting at i; returns the
  // index past it.  Handles member fields, function declarations, and
  // function definitions (recording their body ranges).
  std::size_t parse_statement(std::size_t i) {
    const Scope scope = scopes.back();
    const bool in_class = scope.kind == Scope::kClass;

    bool has_static = false;
    bool has_operator = false;
    std::size_t fn_paren = npos;  // first '(' of a parameter list
    bool params_closed = false;
    bool seen_eq = false;
    bool in_init_list = false;
    int depth = 0;   // () and []
    int angle = 0;   // <> in the declarator only
    std::vector<std::size_t> decl;  // top-level declarator token indices

    std::size_t j = i;
    for (; j < toks.size(); ++j) {
      const std::string& s = text(j);
      if (s == "(" || s == "[") {
        if (s == "(" && depth == 0 && angle == 0 && !seen_eq &&
            fn_paren == npos) {
          fn_paren = j;
        }
        ++depth;
        continue;
      }
      if (s == ")" || s == "]") {
        if (depth > 0) --depth;
        if (depth == 0 && fn_paren != npos && !params_closed) {
          params_closed = true;
        }
        continue;
      }
      if (depth > 0) continue;
      if (!seen_eq && fn_paren == npos) {
        if (s == "<") { ++angle; continue; }
        if (s == "<<") { angle += 2; continue; }
        if (s == ">") { if (angle > 0) --angle; continue; }
        if (s == ">>") { angle -= 2; if (angle < 0) angle = 0; continue; }
      }
      if (angle > 0) continue;
      if (s == ";") { ++j; break; }
      if (s == ":" && params_closed) { in_init_list = true; continue; }
      if (s == "=") { seen_eq = true; continue; }
      if (s == "{") {
        bool initializer = true;
        if (params_closed) {
          if (in_init_list) {
            // `Foo() : a_{1}, b_(2) {` — a '{' straight after an identifier
            // (or a template '>') is a member initializer; the body brace
            // follows a ')' or a '}'.
            initializer = (j > 0 && toks[j - 1].is_identifier) ||
                          text(j - 1) == ">";
          } else {
            initializer = false;
          }
        }
        if (initializer) {
          j = skip_balanced(j) - 1;
          continue;
        }
        return record_function(i, fn_paren, j, scope);
      }
      if (!seen_eq) {
        if (s == "static" || s == "constexpr") has_static = true;
        if (s == "operator") has_operator = true;
        decl.push_back(j);
      }
    }

    // ';'-terminated statement.
    if (fn_paren != npos || has_operator) {
      record_signature(fn_paren);
      return j;
    }
    if (in_class && !has_static && !decl.empty()) {
      add_fields(decl, scope.class_index);
    }
    return j;
  }

  // Name of the function whose parameter list opens at fn_paren, or "".
  std::string function_name(std::size_t fn_paren) const {
    if (fn_paren == npos || fn_paren == 0) return std::string();
    const std::size_t ni = fn_paren - 1;
    return is_ident(ni) ? text(ni) : std::string();
  }

  // body_open is the '{' of a function definition whose parameter list
  // opened at fn_paren.  Records the definition and returns the index just
  // past the closing '}'.
  std::size_t record_function(std::size_t stmt_begin, std::size_t fn_paren,
                              std::size_t body_open, const Scope& scope) {
    const std::size_t past = skip_balanced(body_open);
    const std::string name = function_name(fn_paren);
    if (name.empty()) return past;  // operator overloads and friends
    record_signature(fn_paren);

    FunctionDef fd;
    fd.name = name;
    fd.line = toks[fn_paren - 1].line;
    fd.body_begin = body_open + 1;
    fd.body_end = past > 0 ? past - 1 : past;
    if (scope.kind == Scope::kClass && scope.class_index >= 0) {
      fd.class_name = out.classes[static_cast<std::size_t>(scope.class_index)].name;
    } else if (fn_paren >= 3 && text(fn_paren - 2) == "::" &&
               is_ident(fn_paren - 3)) {
      fd.class_name = text(fn_paren - 3);
    }
    (void)stmt_begin;
    out.functions.push_back(std::move(fd));
    return past;
  }

  void run() {
    std::size_t i = 0;
    while (i < toks.size()) {
      const std::string& t = text(i);
      if (t == "}") {
        if (scopes.size() > 1) scopes.pop_back();
        ++i;
        continue;
      }
      if (t == ";") { ++i; continue; }
      if (t == "#") { i = skip_preprocessor(i); continue; }
      if (t == "template") {
        ++i;
        if (text(i) == "<") i = skip_angles(i);
        continue;
      }
      if (t == "namespace") { i = parse_namespace(i); continue; }
      if (t == "enum") { i = skip_enum(i); continue; }
      if (t == "class" || t == "struct" || t == "union") {
        i = parse_class(i);
        continue;
      }
      if ((t == "public" || t == "private" || t == "protected") &&
          text(i + 1) == ":") {
        i += 2;
        continue;
      }
      if (t == "using" && is_ident(i + 1) && text(i + 2) == "=" &&
          is_std_function(i + 5)) {
        out.function_aliases.push_back(text(i + 1));
      }
      if (non_field_starters().count(t)) {
        i = skip_to_semicolon(i);
        continue;
      }
      i = parse_statement(i);
    }
  }
};

}  // namespace

FileStructure parse_structure(const LexedFile& lex) {
  Parser p(lex);
  p.run();
  return std::move(p.out);
}

}  // namespace availlint
