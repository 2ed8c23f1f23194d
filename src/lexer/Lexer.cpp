//===- lexer/Lexer.cpp ----------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>

using namespace fearless;

const char *fearless::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwStruct:
    return "'struct'";
  case TokenKind::KwDef:
    return "'def'";
  case TokenKind::KwLet:
    return "'let'";
  case TokenKind::KwSome:
    return "'some'";
  case TokenKind::KwNone:
    return "'none'";
  case TokenKind::KwIn:
    return "'in'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDisconnected:
    return "'disconnected'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwIso:
    return "'iso'";
  case TokenKind::KwUnit:
    return "'unit'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwIsNone:
    return "'is_none'";
  case TokenKind::KwSend:
    return "'send'";
  case TokenKind::KwRecv:
    return "'recv'";
  case TokenKind::KwConsumes:
    return "'consumes'";
  case TokenKind::KwPinned:
    return "'pinned'";
  case TokenKind::KwAfter:
    return "'after'";
  case TokenKind::KwBefore:
    return "'before'";
  case TokenKind::KwResult:
    return "'result'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Question:
    return "'?'";
  case TokenKind::Tilde:
    return "'~'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Error:
    return "invalid token";
  }
  return "?";
}

namespace {

/// Keywords sorted by spelling, for binary search.
constexpr std::pair<std::string_view, TokenKind> Keywords[] = {
    {"after", TokenKind::KwAfter},
    {"before", TokenKind::KwBefore},
    {"bool", TokenKind::KwBool},
    {"consumes", TokenKind::KwConsumes},
    {"def", TokenKind::KwDef},
    {"disconnected", TokenKind::KwDisconnected},
    {"else", TokenKind::KwElse},
    {"false", TokenKind::KwFalse},
    {"if", TokenKind::KwIf},
    {"in", TokenKind::KwIn},
    {"int", TokenKind::KwInt},
    {"is_none", TokenKind::KwIsNone},
    {"iso", TokenKind::KwIso},
    {"let", TokenKind::KwLet},
    {"new", TokenKind::KwNew},
    {"none", TokenKind::KwNone},
    {"pinned", TokenKind::KwPinned},
    {"recv", TokenKind::KwRecv},
    {"result", TokenKind::KwResult},
    {"send", TokenKind::KwSend},
    {"some", TokenKind::KwSome},
    {"struct", TokenKind::KwStruct},
    {"true", TokenKind::KwTrue},
    {"unit", TokenKind::KwUnit},
    {"while", TokenKind::KwWhile},
};
static_assert(std::is_sorted(std::begin(Keywords), std::end(Keywords),
                             [](const auto &A, const auto &B) {
                               return A.first < B.first;
                             }),
              "keyword table must stay sorted");

/// The keyword spelled \p Text, or Identifier.
TokenKind keywordOrIdentifier(std::string_view Text) {
  // Every keyword starts with a lowercase letter.
  if (Text[0] < 'a' || Text[0] > 'z')
    return TokenKind::Identifier;
  auto It = std::lower_bound(
      std::begin(Keywords), std::end(Keywords), Text,
      [](const auto &Entry, std::string_view T) { return Entry.first < T; });
  return It != std::end(Keywords) && It->first == Text
             ? It->second
             : TokenKind::Identifier;
}

/// Character classes, as bits of CharClass[c]. The source is treated as
/// bytes in the "C" locale, as std::isalpha and friends did.
enum : uint8_t {
  IdentStart = 1, ///< [A-Za-z_]
  Digit = 2,      ///< [0-9]
  Space = 4,      ///< space, \t, \n, \v, \f, \r
};

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> Classes{};
  for (int C = 'a'; C <= 'z'; ++C)
    Classes[C] |= IdentStart;
  for (int C = 'A'; C <= 'Z'; ++C)
    Classes[C] |= IdentStart;
  Classes['_'] |= IdentStart;
  for (int C = '0'; C <= '9'; ++C)
    Classes[C] |= Digit;
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    Classes[C] |= Space;
  return Classes;
}

constexpr std::array<uint8_t, 256> CharClass = makeCharClasses();

bool is(char C, uint8_t Class) {
  return CharClass[static_cast<unsigned char>(C)] & Class;
}

/// Streaming lexer over one source buffer.
class LexerImpl {
public:
  LexerImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  std::vector<Token> run() {
    std::vector<Token> Tokens;
    for (;;) {
      Token Tok = next();
      Tokens.push_back(Tok);
      if (Tok.is(TokenKind::EndOfFile))
        break;
    }
    return Tokens;
  }

private:
  bool atEnd() const { return Pos >= Source.size(); }
  char peek() const { return atEnd() ? '\0' : Source[Pos]; }
  char peekAhead() const {
    return Pos + 1 < Source.size() ? Source[Pos + 1] : '\0';
  }

  char advance() {
    char C = Source[Pos++];
    if (C == '\n') {
      ++Line;
      Column = 1;
    } else {
      ++Column;
    }
    return C;
  }

  void skipTrivia() {
    for (;;) {
      if (atEnd())
        return;
      char C = peek();
      if (is(C, Space)) {
        advance();
        continue;
      }
      if (C == '/' && peekAhead() == '/') {
        while (!atEnd() && peek() != '\n')
          advance();
        continue;
      }
      return;
    }
  }

  Token make(TokenKind Kind, size_t Start, SourceLoc Loc) {
    return Token{Kind, Source.substr(Start, Pos - Start), 0, Loc};
  }

  Token next() {
    skipTrivia();
    SourceLoc Loc{Line, Column};
    if (atEnd())
      return Token{TokenKind::EndOfFile, {}, 0, Loc};

    size_t Start = Pos;
    char C = advance();

    if (is(C, IdentStart)) {
      // Identifiers hold no newline: advance the column once at the end.
      while (!atEnd() && is(Source[Pos], IdentStart | Digit))
        ++Pos;
      Column += static_cast<uint32_t>(Pos - Start - 1);
      std::string_view Text = Source.substr(Start, Pos - Start);
      return Token{keywordOrIdentifier(Text), Text, 0, Loc};
    }

    if (is(C, Digit)) {
      while (!atEnd() && is(Source[Pos], Digit))
        ++Pos;
      Column += static_cast<uint32_t>(Pos - Start - 1);
      Token Tok = make(TokenKind::IntLiteral, Start, Loc);
      int64_t Value = 0;
      for (char Digit : Tok.Text) {
        if (Value > (INT64_MAX - (Digit - '0')) / 10) {
          Diags.error("integer literal overflows 64 bits", Loc);
          return Token{TokenKind::Error, Tok.Text, 0, Loc};
        }
        Value = Value * 10 + (Digit - '0');
      }
      Tok.IntValue = Value;
      return Tok;
    }

    auto Single = [&](TokenKind Kind) { return make(Kind, Start, Loc); };
    auto Pair = [&](char Second, TokenKind Long, TokenKind Short) {
      if (peek() == Second) {
        advance();
        return make(Long, Start, Loc);
      }
      return make(Short, Start, Loc);
    };

    switch (C) {
    case '{':
      return Single(TokenKind::LBrace);
    case '}':
      return Single(TokenKind::RBrace);
    case '(':
      return Single(TokenKind::LParen);
    case ')':
      return Single(TokenKind::RParen);
    case ';':
      return Single(TokenKind::Semicolon);
    case ':':
      return Single(TokenKind::Colon);
    case ',':
      return Single(TokenKind::Comma);
    case '.':
      return Single(TokenKind::Dot);
    case '?':
      return Single(TokenKind::Question);
    case '~':
      return Single(TokenKind::Tilde);
    case '+':
      return Single(TokenKind::Plus);
    case '-':
      return Single(TokenKind::Minus);
    case '*':
      return Single(TokenKind::Star);
    case '/':
      return Single(TokenKind::Slash);
    case '%':
      return Single(TokenKind::Percent);
    case '=':
      return Pair('=', TokenKind::EqEq, TokenKind::Assign);
    case '!':
      return Pair('=', TokenKind::NotEq, TokenKind::Bang);
    case '<':
      return Pair('=', TokenKind::LessEq, TokenKind::Less);
    case '>':
      return Pair('=', TokenKind::GreaterEq, TokenKind::Greater);
    case '&':
      if (peek() == '&') {
        advance();
        return make(TokenKind::AmpAmp, Start, Loc);
      }
      break;
    case '|':
      if (peek() == '|') {
        advance();
        return make(TokenKind::PipePipe, Start, Loc);
      }
      break;
    default:
      break;
    }

    Diags.error(std::string("unexpected character '") + C + "'", Loc);
    return make(TokenKind::Error, Start, Loc);
  }

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Column = 1;
};

} // namespace

std::vector<Token> fearless::lex(std::string_view Source,
                                 DiagnosticEngine &Diags) {
  return LexerImpl(Source, Diags).run();
}
