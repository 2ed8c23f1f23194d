//===- tests/lexer_test.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include <gtest/gtest.h>

using namespace fearless;

namespace {

std::vector<TokenKind> kindsOf(std::string_view Source) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, Keywords) {
  auto Kinds = kindsOf("struct def let some none iso if while");
  std::vector<TokenKind> Want = {
      TokenKind::KwStruct, TokenKind::KwDef,  TokenKind::KwLet,
      TokenKind::KwSome,   TokenKind::KwNone, TokenKind::KwIso,
      TokenKind::KwIf,     TokenKind::KwWhile, TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, IdentifiersVsKeywords) {
  auto Kinds = kindsOf("iso isolated some something");
  std::vector<TokenKind> Want = {TokenKind::KwIso, TokenKind::Identifier,
                                 TokenKind::KwSome, TokenKind::Identifier,
                                 TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, EveryKeywordLexesToItsKind) {
  // tokenKindName quotes each keyword's spelling: "'struct'".
  for (int K = static_cast<int>(TokenKind::KwStruct);
       K <= static_cast<int>(TokenKind::KwResult); ++K) {
    TokenKind Kind = static_cast<TokenKind>(K);
    std::string Quoted = tokenKindName(Kind);
    ASSERT_GE(Quoted.size(), 3u);
    std::string Spelling = Quoted.substr(1, Quoted.size() - 2);
    EXPECT_EQ(kindsOf(Spelling),
              (std::vector<TokenKind>{Kind, TokenKind::EndOfFile}))
        << Spelling;
  }
}

TEST(Lexer, KeywordNearMissesAreIdentifiers) {
  for (const char *Text : {"defx", "iso_", "i", "_if", "If", "whilex",
                           "is_non", "is_nones", "a", "z9", "resultant",
                           "disconnecte", "_"}) {
    DiagnosticEngine Diags;
    std::vector<Token> Tokens = lex(Text, Diags);
    ASSERT_EQ(Tokens.size(), 2u) << Text;
    EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier) << Text;
    EXPECT_EQ(Tokens[0].Text, Text);
  }
}

TEST(Lexer, ColumnsAfterIdentifiersAndNumbers) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("abc 12345 x\n  while", Diags);
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[1].Loc.Column, 5u);
  EXPECT_EQ(Tokens[2].Loc.Column, 11u);
  EXPECT_EQ(Tokens[3].Loc.Line, 2u);
  EXPECT_EQ(Tokens[3].Loc.Column, 3u);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::KwWhile);
}

TEST(Lexer, Operators) {
  auto Kinds = kindsOf("== != <= >= < > = ! && || + - * / % ~ ?");
  std::vector<TokenKind> Want = {
      TokenKind::EqEq,    TokenKind::NotEq,    TokenKind::LessEq,
      TokenKind::GreaterEq, TokenKind::Less,   TokenKind::Greater,
      TokenKind::Assign,  TokenKind::Bang,     TokenKind::AmpAmp,
      TokenKind::PipePipe, TokenKind::Plus,    TokenKind::Minus,
      TokenKind::Star,    TokenKind::Slash,    TokenKind::Percent,
      TokenKind::Tilde,   TokenKind::Question, TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, IntLiteralValue) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("12345", Diags);
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].IntValue, 12345);
}

TEST(Lexer, IntLiteralOverflowDiagnosed) {
  DiagnosticEngine Diags;
  lex("99999999999999999999999999", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, CommentsAreSkipped) {
  auto Kinds = kindsOf("a // comment to end of line\nb");
  std::vector<TokenKind> Want = {TokenKind::Identifier,
                                 TokenKind::Identifier,
                                 TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, LocationsTrackLinesAndColumns) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("a\n  b", Diags);
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Column, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Column, 3u);
}

TEST(Lexer, UnknownCharacterDiagnosed) {
  DiagnosticEngine Diags;
  lex("a @ b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, FigureFiveSnippetLexes) {
  auto Kinds = kindsOf("if disconnected(tail,hd) { l.hd = some (hd); }");
  EXPECT_EQ(Kinds.front(), TokenKind::KwIf);
  EXPECT_EQ(Kinds[1], TokenKind::KwDisconnected);
  EXPECT_EQ(Kinds.back(), TokenKind::EndOfFile);
}

} // namespace
