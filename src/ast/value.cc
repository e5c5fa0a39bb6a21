#include "ast/value.h"

#include <cmath>
#include <cstdio>

#include "base/string_util.h"

namespace wdl {

const char* ValueKindToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kInt: return "int";
    case ValueKind::kDouble: return "double";
    case ValueKind::kString: return "string";
    case ValueKind::kBlob: return "blob";
    case ValueKind::kAny: return "any";
  }
  return "?";
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      // %.17g round-trips doubles; strip to shortest that still parses
      // as a double (must contain '.' or exponent to stay a double).
      std::string s = StrFormat("%.17g", AsDouble());
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ValueKind::kString: {
      std::string quoted = "\"";
      quoted += EscapeString(AsString());
      quoted += '"';
      return quoted;
    }
    case ValueKind::kBlob: {
      const std::string& b = AsBlob().bytes;
      std::string out = "0x";
      out.reserve(2 + b.size() * 2);
      static const char* kHex = "0123456789abcdef";
      for (unsigned char c : b) {
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
      }
      return out;
    }
    case ValueKind::kAny:
      break;
  }
  return "?";
}

uint64_t Value::ComputeHash() const {
  uint64_t tag = static_cast<uint64_t>(kind());
  switch (kind()) {
    case ValueKind::kInt: {
      uint64_t bits = static_cast<uint64_t>(AsInt());
      return HashCombine(tag, Fnv1a64(&bits, sizeof(bits)));
    }
    case ValueKind::kDouble: {
      // Normalize -0.0 to 0.0 so equal doubles hash equally.
      double d = AsDouble();
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return HashCombine(tag, Fnv1a64(&bits, sizeof(bits)));
    }
    case ValueKind::kString:
      return HashCombine(tag, HashString(AsString()));
    case ValueKind::kBlob:
      return HashCombine(tag, HashString(AsBlob().bytes));
    case ValueKind::kAny:
      break;
  }
  return tag;
}

bool Value::operator<(const Value& o) const {
  if (kind() != o.kind()) {
    return static_cast<int>(kind()) < static_cast<int>(o.kind());
  }
  switch (kind()) {
    case ValueKind::kInt: return AsInt() < o.AsInt();
    case ValueKind::kDouble: return AsDouble() < o.AsDouble();
    case ValueKind::kString: return AsString() < o.AsString();
    case ValueKind::kBlob: return AsBlob() < o.AsBlob();
    case ValueKind::kAny: break;
  }
  return false;
}

}  // namespace wdl
