//===- server/Json.h - Minimal JSON value, parser, writer -------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small JSON layer behind the `fearless-wire-v1` protocol
/// (server/Wire.h): an owning value type, a strict recursive-descent
/// parser, and a deterministic writer (object keys serialize in
/// insertion order, so request/response bytes are reproducible — the
/// bit-identity tests in tests/server_test.cpp rely on that).
///
/// Deliberately minimal: UTF-8 pass-through (no surrogate validation),
/// 64-bit integers kept exact (doubles only for fractional/exponent
/// literals), and a nesting-depth cap so a hostile frame cannot blow the
/// stack. Everything the wire needs, nothing more.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SERVER_JSON_H
#define FEARLESS_SERVER_JSON_H

#include "support/Expected.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fearless {
namespace server {

/// One JSON value. Objects preserve insertion order (a vector of pairs,
/// not a map): wire messages are small, lookups are linear, and the
/// serialized byte sequence stays deterministic.
class Json {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  /*implicit*/ Json(bool B) : K(Kind::Bool), BoolV(B) {}
  /*implicit*/ Json(int64_t I) : K(Kind::Int), IntV(I) {}
  /*implicit*/ Json(uint64_t I)
      : K(Kind::Int), IntV(static_cast<int64_t>(I)) {}
  /*implicit*/ Json(int I) : K(Kind::Int), IntV(I) {}
  /*implicit*/ Json(double D) : K(Kind::Double), DoubleV(D) {}
  /*implicit*/ Json(std::string S) : K(Kind::String), StrV(std::move(S)) {}
  /*implicit*/ Json(const char *S) : K(Kind::String), StrV(S) {}

  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue() const { return BoolV; }
  int64_t intValue() const {
    return K == Kind::Double ? static_cast<int64_t>(DoubleV) : IntV;
  }
  double doubleValue() const {
    return K == Kind::Int ? static_cast<double>(IntV) : DoubleV;
  }
  const std::string &stringValue() const { return StrV; }
  const std::vector<Json> &items() const { return Items; }
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }

  /// Array append.
  void push(Json V) { Items.push_back(std::move(V)); }
  /// Object insert-or-overwrite (linear; wire objects are tiny).
  void set(std::string Key, Json V);
  /// Object lookup; null when absent or not an object.
  const Json *find(std::string_view Key) const;

  // Typed object accessors with defaults — the request decoder's staple.
  bool getBool(std::string_view Key, bool Default) const;
  int64_t getInt(std::string_view Key, int64_t Default) const;
  std::string getString(std::string_view Key,
                        std::string_view Default) const;
  /// getString that moves the member's text out instead of copying it
  /// (the request decoder takes the program source this way).
  std::string takeString(std::string_view Key, std::string_view Default);

  /// Serializes compactly (no whitespace), escaping per RFC 8259.
  std::string dump() const;

private:
  void dumpTo(std::string &Out) const;

  Kind K;
  bool BoolV = false;
  int64_t IntV = 0;
  double DoubleV = 0;
  std::string StrV;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Members;
};

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Failures carry a byte offset in the message.
Expected<Json> parseJson(std::string_view Text);

/// Escapes \p S as the *contents* of a JSON string (no quotes added).
std::string escapeJson(std::string_view S);

} // namespace server
} // namespace fearless

#endif // FEARLESS_SERVER_JSON_H
