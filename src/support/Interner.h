//===- support/Interner.h - String interning ------------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A string interner mapping identifier spellings to dense Symbol ids, so
/// that names can be compared and used as map keys cheaply and printed
/// stably.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_INTERNER_H
#define FEARLESS_SUPPORT_INTERNER_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fearless {

/// A dense id for an interned identifier. Symbol 0 is the invalid symbol.
struct Symbol {
  uint32_t Id = 0;

  bool isValid() const { return Id != 0; }
  bool operator==(const Symbol &) const = default;
  auto operator<=>(const Symbol &) const = default;
};

/// Interns identifier spellings; owned by a Program.
class Interner {
public:
  /// Returns the unique Symbol for \p Text, interning it if new.
  Symbol intern(std::string_view Text);

  /// Returns the Symbol for \p Text, or the invalid Symbol if it was
  /// never interned. Never inserts, so concurrent lookups on a shared
  /// interner are safe.
  Symbol lookup(std::string_view Text) const;

  /// Returns the spelling of \p Sym; Sym must be valid and owned here.
  const std::string &spelling(Symbol Sym) const;

  /// Number of interned symbols (excluding the invalid symbol).
  size_t size() const { return Spellings.size() - 1; }

private:
  /// Hashes std::string and std::string_view alike, so that lookups by
  /// view (every identifier the lexer hands over) allocate nothing.
  struct SpellingHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const noexcept {
      return std::hash<std::string_view>()(S);
    }
  };

  std::vector<std::string> Spellings = {""}; // index 0 reserved: invalid
  std::unordered_map<std::string, uint32_t, SpellingHash, std::equal_to<>>
      Index;
};

} // namespace fearless

template <> struct std::hash<fearless::Symbol> {
  size_t operator()(const fearless::Symbol &S) const noexcept {
    return std::hash<uint32_t>()(S.Id);
  }
};

#endif // FEARLESS_SUPPORT_INTERNER_H
