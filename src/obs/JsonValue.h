//===- obs/JsonValue.h - Minimal JSON parsing -------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader for the tooling side of the obs
/// layer: the trace-schema tests parse exported Chrome traces back, and
/// `stats_report --diff` reads two report JSON files. It handles exactly
/// standard JSON (RFC 8259) with a nesting-depth cap; it is not meant to
/// be fast, only dependency-free and strict (trailing junk is an error).
/// The two writer helpers every JSON emitter shares (the trace export,
/// reports, the heartbeat, the bench and server JSON) live here too.
///
/// Object keys are kept in a sorted map — every consumer here iterates for
/// deterministic comparison, none needs source order.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_JSONVALUE_H
#define PSEQ_OBS_JSONVALUE_H

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pseq::obs {

/// Escapes \p S for inclusion in a JSON string literal (quotes, backslash,
/// control characters; non-ASCII bytes pass through, valid for UTF-8).
std::string jsonEscape(std::string_view S);

/// Formats \p V as a JSON number token (non-finite values become null).
std::string jsonNumber(double V);

/// One parsed JSON value (a tagged tree).
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &array() const { return Arr; }
  const std::map<std::string, JsonValue> &object() const { return Obj; }

  /// \returns the member named \p Key, or null when absent / not an object.
  const JsonValue *field(const std::string &Key) const;

  /// Parses \p Text (the whole string must be one JSON value plus optional
  /// whitespace). On failure returns false and, when \p Err is non-null,
  /// stores a message with the byte offset.
  static bool parse(std::string_view Text, JsonValue &Out,
                    std::string *Err = nullptr);

  // Construction (used by the parser; handy for tests).
  JsonValue() = default;
  static JsonValue makeBool(bool V);
  static JsonValue makeNumber(double V);
  static JsonValue makeString(std::string V);

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;

  friend class JsonParser;
};

} // namespace pseq::obs

#endif // PSEQ_OBS_JSONVALUE_H
