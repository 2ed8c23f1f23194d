//===- support/Interner.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"

#include <cassert>

using namespace fearless;

Symbol Interner::intern(std::string_view Text) {
  assert(!Text.empty() && "interning an empty identifier");
  auto It = Index.find(Text);
  if (It != Index.end())
    return Symbol{It->second};
  uint32_t Id = static_cast<uint32_t>(Spellings.size());
  Spellings.emplace_back(Text);
  Index.emplace(Spellings.back(), Id);
  return Symbol{Id};
}

const std::string &Interner::spelling(Symbol Sym) const {
  assert(Sym.isValid() && Sym.Id < Spellings.size() &&
         "spelling of an unknown symbol");
  return Spellings[Sym.Id];
}
