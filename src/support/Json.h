//===- support/Json.h - Minimal ordered JSON emitter ------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small ordered JSON document model for benchmark reports and the
/// allocation-service wire protocol (service/Protocol.h).  Object keys keep
/// insertion order and numbers format deterministically, so two runs
/// producing the same values serialize to byte-identical text -- the
/// property the driver's determinism checks and golden fixtures rely on.
///
/// parseJson() is the matching strict reader: RFC 8259 grammar with a
/// recursion-depth bound, full string-escape handling (including surrogate
/// pairs), and rejection of trailing garbage -- malformed network input must
/// become an error message, never undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SUPPORT_JSON_H
#define LAYRA_SUPPORT_JSON_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace layra {

/// One JSON value; a tree of these is a document.
class JsonValue {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  JsonValue(bool B) : K(Kind::Bool), BoolV(B) {}
  JsonValue(long long I) : K(Kind::Int), IntV(I) {}
  JsonValue(unsigned long long I)
      : K(Kind::Int), IntV(static_cast<long long>(I)) {}
  JsonValue(long I) : K(Kind::Int), IntV(I) {}
  JsonValue(unsigned long I) : K(Kind::Int), IntV(static_cast<long long>(I)) {}
  JsonValue(int I) : K(Kind::Int), IntV(I) {}
  JsonValue(unsigned I) : K(Kind::Int), IntV(I) {}
  JsonValue(double D) : K(Kind::Double), DoubleV(D) {}
  JsonValue(std::string S) : K(Kind::String), StringV(std::move(S)) {}
  JsonValue(const char *S) : K(Kind::String), StringV(S) {}

  static JsonValue array() { return JsonValue(Kind::Array); }
  static JsonValue object() { return JsonValue(Kind::Object); }

  Kind kind() const { return K; }

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isDouble() const { return K == Kind::Double; }
  /// Int or Double: anything numberValue() can represent.
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Value reads.  Each returns \p Default (or an empty string) when the
  /// value is not of the requested kind, so consumers of parsed documents
  /// can read optional fields without kind-checking boilerplate.
  bool boolValue(bool Default = false) const {
    return K == Kind::Bool ? BoolV : Default;
  }
  long long intValue(long long Default = 0) const {
    return K == Kind::Int ? IntV : Default;
  }
  double numberValue(double Default = 0) const {
    if (K == Kind::Int)
      return static_cast<double>(IntV);
    return K == Kind::Double ? DoubleV : Default;
  }
  const std::string &stringValue() const;

  /// Element count of an array or object; 0 for scalars.
  size_t size() const {
    return K == Kind::Array ? ArrayV.size()
                            : (K == Kind::Object ? ObjectV.size() : 0);
  }
  /// Array element access; \p I must be < size() of an array value.
  const JsonValue &at(size_t I) const;
  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;
  /// Object members in insertion order (empty for non-objects).
  const std::vector<std::pair<std::string, JsonValue>> &members() const;
  /// Array elements (empty for non-arrays).
  const std::vector<JsonValue> &elements() const;

  /// Appends \p V to an array value.
  JsonValue &push(JsonValue V);

  /// Sets \p Key of an object value (insertion order preserved; setting an
  /// existing key overwrites in place).  Linear in the member count --
  /// fine for the small hand-built documents reports are made of; bulk
  /// builders that already know key uniqueness (the parser) use append().
  JsonValue &set(const std::string &Key, JsonValue V);

  /// Appends a member to an object *without* the duplicate-key scan.  The
  /// caller is responsible for key uniqueness (parseJson tracks keys in a
  /// side index, keeping object parsing linear on adversarial input).
  JsonValue &append(std::string Key, JsonValue V);

  /// Mutable access to member \p I's value (parser duplicate-key
  /// overwrite); \p I must be < size() of an object value.
  JsonValue &memberAt(size_t I);

  /// Serializes the document.  \p Indent > 0 pretty-prints with that many
  /// spaces per level; 0 emits compact single-line JSON.
  std::string dump(unsigned Indent = 2) const;

  /// Serializes to \p Out followed by a newline.
  void write(std::FILE *Out, unsigned Indent = 2) const;

  /// JSON string escaping of \p S (quotes not included).
  static std::string escape(const std::string &S);

private:
  explicit JsonValue(Kind Which) : K(Which) {}
  void dumpTo(std::string &Out, unsigned Indent, unsigned Depth) const;

  Kind K;
  bool BoolV = false;
  long long IntV = 0;
  double DoubleV = 0;
  std::string StringV;
  std::vector<JsonValue> ArrayV;
  std::vector<std::pair<std::string, JsonValue>> ObjectV;
};

/// Outcome of parseJson().
struct JsonParseResult {
  /// True when the whole input was one well-formed JSON document; Value is
  /// meaningful only then (Error/Line/Column describe the first problem
  /// otherwise).
  bool Ok = false;
  JsonValue Value;
  std::string Error;
  /// 1-based position of the error.
  unsigned Line = 0;
  unsigned Column = 0;
};

/// Parses \p Text as one JSON document (RFC 8259: any value is a valid
/// top-level document).  Strict: rejects trailing non-whitespace, invalid
/// escapes, lone surrogates, control characters inside strings, malformed
/// numbers, and nesting deeper than \p MaxDepth.  Numbers without fraction
/// or exponent that fit a long long parse as Int; everything else numeric
/// parses as Double.  Duplicate object keys keep the *last* occurrence (at
/// the first occurrence's position), matching JsonValue::set.
///
/// Taking a string_view lets callers parse a slice of a larger buffer (the
/// serve event loop slices request payloads straight out of per-connection
/// read buffers) without first materializing a std::string.  The view only
/// needs to stay alive for the duration of the call; the parsed document
/// owns all of its storage.
JsonParseResult parseJson(std::string_view Text, unsigned MaxDepth = 64);

} // namespace layra

#endif // LAYRA_SUPPORT_JSON_H
