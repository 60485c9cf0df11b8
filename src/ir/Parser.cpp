//===- ir/Parser.cpp - Textual IR parser ------------------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// Implementation notes.  Parsing runs in two passes over the lines: the
// first creates every block (so preds/succs can refer forward), the second
// parses annotations and instructions.  CFG edges are inserted last: both
// the preds list of the target and the succs list of the source are
// order-significant (phi operands are positional, and round-tripping should
// be stable), so the parser computes an interleaving of addEdge() calls
// that reproduces both sequences at once -- a topological order of the
// edge-instance DAG where e1 < e2 when e1 precedes e2 in a shared source's
// succs or a shared target's preds.  An inconsistent pair of orders has a
// cycle and is reported as an error.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

using namespace layra;

namespace {

/// Cursor over one line.
class LineCursor {
public:
  explicit LineCursor(const std::string &Line) : Text(Line) {}

  void skipSpace() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

  bool consume(const std::string &Token) {
    skipSpace();
    if (Text.compare(Pos, Token.size(), Token) != 0)
      return false;
    Pos += Token.size();
    return true;
  }

  bool peekIs(char C) {
    skipSpace();
    return Pos < Text.size() && Text[Pos] == C;
  }

  /// Reads an identifier: [A-Za-z0-9_.#-]+.
  bool readIdent(std::string &Out) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
          C == '.' || C == '#' || C == '-')
        ++Pos;
      else
        break;
    }
    if (Pos == Start)
      return false;
    Out = Text.substr(Start, Pos - Start);
    return true;
  }

  bool readNumber(long long &Out) {
    std::string Ident;
    size_t Save = Pos;
    if (!readIdent(Ident) || Ident.empty()) {
      Pos = Save;
      return false;
    }
    for (char C : Ident)
      if (!std::isdigit(static_cast<unsigned char>(C))) {
        Pos = Save;
        return false;
      }
    Out = std::stoll(Ident);
    return true;
  }

  std::string rest() {
    skipSpace();
    return Text.substr(Pos);
  }

private:
  const std::string &Text;
  size_t Pos = 0;
};

/// Splits a comma-separated list ("a,b,c").
std::vector<std::string> splitList(const std::string &Text) {
  std::vector<std::string> Out;
  std::string Item;
  for (char C : Text) {
    if (C == ',') {
      Out.push_back(Item);
      Item.clear();
    } else if (!std::isspace(static_cast<unsigned char>(C))) {
      Item += C;
    }
  }
  if (!Item.empty())
    Out.push_back(Item);
  return Out;
}

/// The parser state proper.
class Parser {
public:
  explicit Parser(const std::string &Text) { splitLines(Text); }

  ParsedFunction run() {
    // Edges must exist before instructions are parsed: Function::addEdge
    // extends already-present phis with fresh operand slots, which would
    // corrupt phis that were parsed with their full operand lists.
    ParsedFunction Result;
    if (!parseHeader() || !createBlocks() || !parseAnnotations() ||
        !insertEdges() || !parseInstructions()) {
      Result.Error = ErrorMessage;
      Result.Line = ErrorLine;
      return Result;
    }
    Result.Ok = true;
    Result.F = std::move(*F);
    return Result;
  }

private:
  void splitLines(const std::string &Text) {
    std::string Line;
    std::istringstream In(Text);
    while (std::getline(In, Line))
      Lines.push_back(Line);
  }

  bool fail(unsigned LineNo, const std::string &Message) {
    ErrorMessage = Message;
    ErrorLine = LineNo + 1;
    return false;
  }

  /// True for lines that carry no content (blank or pure `;` comments that
  /// are not succs annotations).
  static bool isBlank(const std::string &Line) {
    for (char C : Line)
      if (!std::isspace(static_cast<unsigned char>(C)))
        return false;
    return true;
  }

  /// A block header is `name:` possibly followed by an annotation.
  static bool isBlockHeader(const std::string &Line) {
    if (Line.empty() || std::isspace(static_cast<unsigned char>(Line[0])))
      return false;
    size_t Colon = Line.find(':');
    return Colon != std::string::npos && Colon > 0;
  }

  bool parseHeader() {
    while (First < Lines.size() && isBlank(Lines[First]))
      ++First;
    if (First >= Lines.size())
      return fail(0, "empty input: expected 'function <name> {'");
    LineCursor Cur(Lines[First]);
    std::string Name;
    if (!Cur.consume("function") || !Cur.readIdent(Name) ||
        !Cur.consume("{"))
      return fail(First, "expected 'function <name> {'");
    F.emplace(Name);
    ++First;

    Last = Lines.size();
    while (Last > First && isBlank(Lines[Last - 1]))
      --Last;
    if (Last <= First || Lines[Last - 1].find('}') == std::string::npos)
      return fail(Last ? Last - 1 : 0, "expected closing '}'");
    --Last; // Exclude the '}' line.
    return true;
  }

  bool createBlocks() {
    for (unsigned L = First; L < Last; ++L) {
      const std::string &Line = Lines[L];
      if (isBlank(Line) || !isBlockHeader(Line))
        continue;
      std::string Name = Line.substr(0, Line.find(':'));
      if (BlockOf.count(Name))
        return fail(L, "duplicate block name '" + Name + "'");
      BlockOf[Name] = F->makeBlock(Name);
    }
    if (F->numBlocks() == 0)
      return fail(First, "function has no blocks");
    return true;
  }

  /// Parses `; depth=D freq=W preds=a,b` after a block header.
  bool parseBlockAnnotation(unsigned L, const std::string &Rest,
                            BlockId Block) {
    LineCursor Cur(Rest);
    if (Cur.atEnd())
      return true;
    if (!Cur.consume(";"))
      return fail(L, "unexpected text after block header");
    long long Number;
    if (Cur.consume("depth=")) {
      if (!Cur.readNumber(Number))
        return fail(L, "bad depth annotation");
      F->block(Block).LoopDepth = static_cast<unsigned>(Number);
    }
    if (Cur.consume("freq=")) {
      if (!Cur.readNumber(Number))
        return fail(L, "bad freq annotation");
      F->block(Block).Frequency = Number;
    }
    if (Cur.consume("preds=")) {
      for (const std::string &Name : splitList(Cur.rest())) {
        auto It = BlockOf.find(Name);
        if (It == BlockOf.end())
          return fail(L, "unknown predecessor block '" + Name + "'");
        Preds[Block].push_back(It->second);
      }
    }
    return true;
  }

  /// Parses `; succs=a,b` inside a block.
  bool parseSuccsAnnotation(unsigned L, LineCursor &Cur, BlockId Block) {
    for (const std::string &Name : splitList(Cur.rest())) {
      auto It = BlockOf.find(Name);
      if (It == BlockOf.end())
        return fail(L, "unknown successor block '" + Name + "'");
      Succs[Block].push_back(It->second);
    }
    return true;
  }

  /// Maps a `%token` to a ValueId (fresh on first appearance).  All-digit
  /// tokens come from anonymous values; they are re-created anonymous.
  ValueId valueOf(const std::string &Token) {
    auto It = ValueOf.find(Token);
    if (It != ValueOf.end())
      return It->second;
    bool AllDigits = !Token.empty();
    for (char C : Token)
      AllDigits &= std::isdigit(static_cast<unsigned char>(C)) != 0;
    ValueId V = F->makeValue(AllDigits ? std::string() : Token);
    ValueOf[Token] = V;
    return V;
  }

  /// Parses a value list `%a, %b, <undef>` into \p Out.  With
  /// \p AllowClass (definition lists only) each value may carry a
  /// `:$<class>` register-class suffix.
  bool readValueList(unsigned L, LineCursor &Cur, std::vector<ValueId> &Out,
                     bool AllowClass = false) {
    while (true) {
      if (Cur.consume("<undef>")) {
        Out.push_back(kNoValue);
      } else if (Cur.consume("%")) {
        std::string Token;
        if (!Cur.readIdent(Token))
          return fail(L, "expected value name after '%'");
        ValueId V = valueOf(Token);
        Out.push_back(V);
        if (AllowClass && Cur.consume(":$")) {
          long long Class = 0;
          if (!Cur.readNumber(Class) || Class < 0 ||
              Class >= static_cast<long long>(kMaxRegClasses))
            return fail(L, "register class suffix must be :$N with N in "
                           "[0, " +
                               std::to_string(kMaxRegClasses - 1) + "]");
          RegClassId C = static_cast<RegClassId>(Class);
          auto [It, Fresh] = ClassOf.emplace(V, C);
          if (!Fresh && It->second != C)
            return fail(L, "value %" + Token +
                               " redefined with a different register class");
          F->setValueClass(V, C);
        }
      } else {
        return fail(L, "expected value operand");
      }
      if (!Cur.consume(","))
        return true;
    }
  }

  static bool opcodeFromName(const std::string &Name, Opcode &Out) {
    static const std::pair<const char *, Opcode> Table[] = {
        {"op", Opcode::Op},       {"copy", Opcode::Copy},
        {"phi", Opcode::Phi},     {"load", Opcode::Load},
        {"store", Opcode::Store}, {"br", Opcode::Branch},
        {"ret", Opcode::Return}};
    for (const auto &[Text, Op] : Table)
      if (Name == Text) {
        Out = Op;
        return true;
      }
    return false;
  }

  bool parseInstruction(unsigned L, BlockId Block) {
    LineCursor Cur(Lines[L]);
    Instruction I;

    // Defs: present when an '=' appears before the opcode.  Cheap test:
    // parse a value list, then look for '='.
    if (Cur.peekIs('%')) {
      if (!readValueList(L, Cur, I.Defs, /*AllowClass=*/true))
        return false;
      if (!Cur.consume("="))
        return fail(L, "expected '=' after definition list");
      for (ValueId V : I.Defs)
        if (V == kNoValue)
          return fail(L, "<undef> cannot be defined");
    }

    std::string Name;
    if (!Cur.readIdent(Name) || !opcodeFromName(Name, I.Op))
      return fail(L, "unknown opcode '" + Name + "'");

    if (Cur.peekIs('%') || Cur.peekIs('<'))
      if (!readValueList(L, Cur, I.Uses))
        return false;

    long long Slot;
    if (Cur.consume("[slot")) {
      if (!Cur.readNumber(Slot) || !Cur.consume("]"))
        return fail(L, "bad [slot N] annotation");
      I.SpillSlot = static_cast<int>(Slot);
    }
    while (Cur.consume("[mem slot")) {
      if (!Cur.readNumber(Slot) || !Cur.consume("]"))
        return fail(L, "bad [mem slot N] annotation");
      I.MemUseSlots.push_back(static_cast<int>(Slot));
    }
    if (!Cur.atEnd())
      return fail(L, "trailing characters after instruction");

    F->block(Block).Instrs.push_back(std::move(I));
    return true;
  }

  /// First body pass: block annotations and succs lists only.
  bool parseAnnotations() {
    BlockId Current = kNoBlock;
    for (unsigned L = First; L < Last; ++L) {
      const std::string &Line = Lines[L];
      if (isBlank(Line))
        continue;
      if (isBlockHeader(Line)) {
        size_t Colon = Line.find(':');
        Current = BlockOf[Line.substr(0, Colon)];
        if (!parseBlockAnnotation(L, Line.substr(Colon + 1), Current))
          return false;
        continue;
      }
      if (Current == kNoBlock)
        return fail(L, "instruction outside any block");
      LineCursor Cur(Line);
      if (Cur.consume(";") && Cur.consume("succs="))
        if (!parseSuccsAnnotation(L, Cur, Current))
          return false;
    }
    return true;
  }

  /// Second body pass: the instructions (the CFG already exists).
  bool parseInstructions() {
    BlockId Current = kNoBlock;
    for (unsigned L = First; L < Last; ++L) {
      const std::string &Line = Lines[L];
      if (isBlank(Line))
        continue;
      if (isBlockHeader(Line)) {
        Current = BlockOf[Line.substr(0, Line.find(':'))];
        continue;
      }
      LineCursor Cur(Line);
      if (Cur.consume(";"))
        continue; // Annotations were handled in the first pass.
      if (!parseInstruction(L, Current))
        return false;
    }
    return true;
  }

  /// Inserts CFG edges reproducing both the preds and the succs orders.
  bool insertEdges() {
    // Consistency: the edge multisets implied by preds and succs match.
    struct EdgeRef {
      BlockId From, To;
      unsigned SuccIdx, PredIdx;
    };
    std::vector<EdgeRef> Edges;
    std::map<std::pair<BlockId, BlockId>, std::vector<unsigned>> BySucc;
    for (auto &[From, List] : Succs)
      for (unsigned Idx = 0; Idx < List.size(); ++Idx) {
        BySucc[{From, List[Idx]}].push_back(
            static_cast<unsigned>(Edges.size()));
        Edges.push_back({From, List[Idx], Idx, 0});
      }
    std::vector<char> Matched(Edges.size(), 0);
    for (auto &[To, List] : Preds)
      for (unsigned Idx = 0; Idx < List.size(); ++Idx) {
        auto It = BySucc.find({List[Idx], To});
        bool Found = false;
        if (It != BySucc.end())
          for (unsigned E : It->second)
            if (!Matched[E]) {
              Matched[E] = 1;
              Edges[E].PredIdx = Idx;
              Found = true;
              break;
            }
        if (!Found)
          return fail(First, "pred list of '" + F->block(To).Name +
                                 "' has no matching succs entry in '" +
                                 F->block(List[Idx]).Name + "'");
      }
    for (unsigned E = 0; E < Edges.size(); ++E)
      if (!Matched[E])
        return fail(First, "succs entry '" + F->block(Edges[E].From).Name +
                               " -> " + F->block(Edges[E].To).Name +
                               "' missing from the target's preds");

    // Kahn's algorithm over edge instances: within one source, succs order;
    // within one target, preds order.
    unsigned N = static_cast<unsigned>(Edges.size());
    std::vector<std::vector<unsigned>> After(N);
    std::vector<unsigned> InDegree(N, 0);
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = 0; B < N; ++B) {
        if (A == B)
          continue;
        bool Before = (Edges[A].From == Edges[B].From &&
                       Edges[A].SuccIdx + 1 == Edges[B].SuccIdx) ||
                      (Edges[A].To == Edges[B].To &&
                       Edges[A].PredIdx + 1 == Edges[B].PredIdx);
        if (Before) {
          After[A].push_back(B);
          ++InDegree[B];
        }
      }
    std::vector<unsigned> Ready;
    for (unsigned E = 0; E < N; ++E)
      if (InDegree[E] == 0)
        Ready.push_back(E);
    unsigned Inserted = 0;
    while (!Ready.empty()) {
      // Smallest-index choice keeps the construction deterministic.
      auto It = std::min_element(Ready.begin(), Ready.end());
      unsigned E = *It;
      Ready.erase(It);
      F->addEdge(Edges[E].From, Edges[E].To);
      ++Inserted;
      for (unsigned Next : After[E])
        if (--InDegree[Next] == 0)
          Ready.push_back(Next);
    }
    if (Inserted != N)
      return fail(First, "preds/succs orders are mutually inconsistent");
    return true;
  }

  std::vector<std::string> Lines;
  unsigned First = 0, Last = 0;
  std::optional<Function> F;
  std::map<std::string, BlockId> BlockOf;
  std::map<std::string, ValueId> ValueOf;
  std::map<ValueId, RegClassId> ClassOf; // Classes seen at definitions.
  std::map<BlockId, std::vector<BlockId>> Preds, Succs;
  std::string ErrorMessage;
  unsigned ErrorLine = 0;
};

} // namespace

ParsedFunction layra::parseFunction(const std::string &Text) {
  return Parser(Text).run();
}
