#pragma once
// availlint structural parser: recovers just enough C++ structure from the
// lexer's token stream for the hot-alloc pass — class/struct scopes with
// their member-field declarations, and function definitions with their
// body token ranges.
//
// It is not a C++ parser.  It is a single linear scan with an explicit
// scope stack, exact about the constructs this repo actually writes
// (nested classes, template members, constructor initializer lists,
// brace-initialized members) and deliberately lenient about everything
// else: a construct it cannot classify is skipped, never misread as a
// field.
//
// Consumer: hot-alloc walks call edges between function bodies starting
// from the declared hot-path roster, and uses the recorded parameter and
// field types to spot lambdas converted to std::function.

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace availlint {

struct FieldInfo {
  std::string name;
  // Declared type is a node-per-element container (map/set/list and the
  // unordered_* family): insertion allocates on every call.
  bool node_container = false;
  // Subset of node_container whose operator[] default-inserts.
  bool map_like = false;
  // Nominal declared type (see FunctionSig::param_types).
  std::string type;
};

struct ClassInfo {
  std::string name;  // unqualified
  std::vector<FieldInfo> fields;
};

struct FunctionDef {
  std::string class_name;  // enclosing/qualifying class, "" for free fns
  std::string name;        // bare function name
  int line = 0;
  // Token index range of the body *contents* (between the braces),
  // half-open over LexedFile::tokens.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

// A function declaration or definition (member or free), with the
// nominal type of each parameter: "std::function" when the parameter's
// type is spelled std::function<...>, otherwise the last identifier of
// its type (`const net::Packet& p` -> "Packet", `F&& fn` -> "F"), so
// aliases of std::function can be resolved across files.
struct FunctionSig {
  std::string name;  // bare function name
  std::vector<std::string> param_types;
};

struct FileStructure {
  std::vector<ClassInfo> classes;
  std::vector<FunctionDef> functions;
  std::vector<FunctionSig> signatures;
  // Names declared as `using Name = std::function<...>;`.
  std::vector<std::string> function_aliases;
};

FileStructure parse_structure(const LexedFile& lex);

}  // namespace availlint
