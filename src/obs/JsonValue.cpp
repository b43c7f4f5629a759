//===- obs/JsonValue.cpp - Minimal JSON parsing ---------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/JsonValue.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pseq::obs;

std::string pseq::obs::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

std::string pseq::obs::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  // %.17g round-trips doubles but is noisy; timings/gauges don't need more
  // than %.6g, and it keeps reports stable across runs of equal values.
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

const JsonValue *JsonValue::field(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Obj.find(Key);
  return It == Obj.end() ? nullptr : &It->second;
}

JsonValue JsonValue::makeBool(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.B = V;
  return J;
}

JsonValue JsonValue::makeNumber(double V) {
  JsonValue J;
  J.K = Kind::Number;
  J.Num = V;
  return J;
}

JsonValue JsonValue::makeString(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.Str = std::move(V);
  return J;
}

namespace pseq::obs {

class JsonParser {
public:
  JsonParser(std::string_view Text, std::string *Err)
      : Text(Text), Err(Err) {}

  bool run(JsonValue &Out) {
    skipWs();
    if (!value(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 128;

  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;

  bool fail(const char *Msg) {
    if (Err)
      *Err = std::string(Msg) + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t N = std::strlen(Word);
    if (Text.compare(Pos, N, Word) != 0)
      return fail("invalid literal");
    Pos += N;
    return true;
  }

  bool value(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case 'n':
      Out = JsonValue();
      return literal("null");
    case 't':
      Out = JsonValue::makeBool(true);
      return literal("true");
    case 'f':
      Out = JsonValue::makeBool(false);
      return literal("false");
    case '"': {
      std::string S;
      if (!string(S))
        return false;
      Out = JsonValue::makeString(std::move(S));
      return true;
    }
    case '[':
      return array(Out, Depth);
    case '{':
      return object(Out, Depth);
    default:
      return number(Out);
    }
  }

  bool number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("invalid number");
    // Leading-zero rule: 0 may not be followed by another digit.
    if (Text[Pos] == '0' && Pos + 1 < Text.size() && Text[Pos + 1] >= '0' &&
        Text[Pos + 1] <= '9')
      return fail("leading zero in number");
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit expected after decimal point");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit expected in exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    std::string Token(Text.substr(Start, Pos - Start));
    Out = JsonValue::makeNumber(std::strtod(Token.c_str(), nullptr));
    return true;
  }

  bool hex4(unsigned &Out) {
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      if (Pos >= Text.size())
        return fail("truncated \\u escape");
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= unsigned(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= unsigned(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= unsigned(C - 'A' + 10);
      else
        return fail("invalid hex digit in \\u escape");
    }
    return true;
  }

  static void appendUtf8(std::string &S, unsigned Cp) {
    if (Cp < 0x80) {
      S += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      S += static_cast<char>(0xC0 | (Cp >> 6));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      S += static_cast<char>(0xE0 | (Cp >> 12));
      S += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      S += static_cast<char>(0xF0 | (Cp >> 18));
      S += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      S += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      unsigned char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return fail("truncated escape");
      switch (Text[Pos++]) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp = 0;
        if (!hex4(Cp))
          return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF && Pos + 1 < Text.size() &&
            Text[Pos] == '\\' && Text[Pos + 1] == 'u') {
          Pos += 2;
          unsigned Lo = 0;
          if (!hex4(Lo))
            return false;
          if (Lo >= 0xDC00 && Lo <= 0xDFFF)
            Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
          else
            appendUtf8(Out, Cp), Cp = Lo; // lone surrogates pass through
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
  }

  bool array(JsonValue &Out, unsigned Depth) {
    ++Pos; // '['
    Out = JsonValue();
    Out.K = JsonValue::Kind::Array;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue Elem;
      if (!value(Elem, Depth + 1))
        return false;
      Out.Arr.push_back(std::move(Elem));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        skipWs();
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("',' or ']' expected");
    }
  }

  bool object(JsonValue &Out, unsigned Depth) {
    ++Pos; // '{'
    Out = JsonValue();
    Out.K = JsonValue::Kind::Object;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("object key expected");
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("':' expected");
      ++Pos;
      skipWs();
      JsonValue Member;
      if (!value(Member, Depth + 1))
        return false;
      Out.Obj.insert_or_assign(std::move(Key), std::move(Member));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("',' or '}' expected");
    }
  }
};

} // namespace pseq::obs

bool JsonValue::parse(std::string_view Text, JsonValue &Out,
                      std::string *Err) {
  return JsonParser(Text, Err).run(Out);
}
