#include "src/parser/parser.h"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <optional>

#include "src/parser/lexer.h"

namespace dmtl {

namespace {

bool IsUnaryOpName(const std::string& s, MtlOp* op) {
  if (s == "boxminus") {
    *op = MtlOp::kBoxMinus;
    return true;
  }
  if (s == "diamondminus") {
    *op = MtlOp::kDiamondMinus;
    return true;
  }
  if (s == "boxplus") {
    *op = MtlOp::kBoxPlus;
    return true;
  }
  if (s == "diamondplus") {
    *op = MtlOp::kDiamondPlus;
    return true;
  }
  return false;
}

bool IsAggName(const std::string& s, AggKind* kind) {
  if (s == "msum") {
    *kind = AggKind::kSum;
    return true;
  }
  if (s == "mcount") {
    *kind = AggKind::kCount;
    return true;
  }
  if (s == "mmin") {
    *kind = AggKind::kMin;
    return true;
  }
  if (s == "mmax") {
    *kind = AggKind::kMax;
    return true;
  }
  if (s == "mavg") {
    *kind = AggKind::kAvg;
    return true;
  }
  return false;
}

bool IsCompareToken(TokenKind k) {
  switch (k) {
    case TokenKind::kEq:
    case TokenKind::kEqEq:
    case TokenKind::kNe:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
      return true;
    default:
      return false;
  }
}

// Recursive-descent parser over the token stream.
class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Status ParseUnit(Parser::ParsedUnit* out) {
    while (Peek().kind != TokenKind::kEof) {
      DMTL_RETURN_IF_ERROR(ParseStatement(out));
    }
    return out->program.CheckArities();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }

  const Token& Next() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      Next();
      return true;
    }
    return false;
  }

  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    return Status::ParseError(msg + " at line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.column) +
                              " (found " + t.Describe() + ")");
  }

  Status Expect(TokenKind kind, const char* what) {
    if (!Accept(kind)) return Error(std::string("expected ") + what);
    return Status::Ok();
  }

  // --- statements --------------------------------------------------------

  Status ParseStatement(Parser::ParsedUnit* out) {
    // A statement starting with a head operator is necessarily a rule.
    MtlOp op;
    bool has_head_ops = Peek().kind == TokenKind::kIdent &&
                        IsUnaryOpName(Peek().text, &op);
    var_indices_.clear();
    var_names_.clear();

    std::vector<HeadAtom::HeadOp> head_ops;
    while (Peek().kind == TokenKind::kIdent &&
           IsUnaryOpName(Peek().text, &op)) {
      if (op != MtlOp::kBoxMinus && op != MtlOp::kBoxPlus) {
        return Error("only boxminus/boxplus are allowed in rule heads");
      }
      Next();
      DMTL_ASSIGN_OR_RETURN(Interval range, ParseOptionalRange());
      head_ops.push_back({op, range});
    }

    DMTL_ASSIGN_OR_RETURN(HeadAtom head, ParseHeadAtom());
    head.ops = std::move(head_ops);

    if (Peek().kind == TokenKind::kAt) {
      if (has_head_ops || head.aggregate.has_value()) {
        return Error("facts cannot carry operators or aggregates");
      }
      Next();
      return ParseFactTail(head, out);
    }
    if (Peek().kind == TokenKind::kDot) {
      Next();
      if (has_head_ops || head.aggregate.has_value()) {
        return Error("facts cannot carry operators or aggregates");
      }
      return AddFact(head, Interval::All(), out);
    }
    DMTL_RETURN_IF_ERROR(Expect(TokenKind::kArrow, "':-', '@' or '.'"));

    Rule rule;
    rule.head = std::move(head);
    while (true) {
      DMTL_ASSIGN_OR_RETURN(BodyLiteral lit, ParseBodyLiteral());
      rule.body.push_back(std::move(lit));
      if (Accept(TokenKind::kComma)) continue;
      break;
    }
    DMTL_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.' after rule body"));
    rule.var_names = var_names_;
    out->program.AddRule(std::move(rule));
    return Status::Ok();
  }

  Status ParseFactTail(const HeadAtom& head, Parser::ParsedUnit* out) {
    // '@' already consumed: either a point or an interval literal.
    if (Peek().kind == TokenKind::kLBracket ||
        Peek().kind == TokenKind::kLParen) {
      DMTL_ASSIGN_OR_RETURN(Interval iv,
                            ParseRange(/*require_nonnegative=*/false));
      DMTL_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.' after fact"));
      return AddFact(head, iv, out);
    }
    DMTL_ASSIGN_OR_RETURN(Rational t, ParseSignedRational());
    DMTL_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.' after fact"));
    return AddFact(head, Interval::Point(t), out);
  }

  Status AddFact(const HeadAtom& head, const Interval& iv,
                 Parser::ParsedUnit* out) {
    Tuple tuple;
    tuple.reserve(head.args.size());
    for (const Term& term : head.args) {
      if (term.is_variable()) {
        return Status::ParseError("facts must be ground: " +
                                  PredicateName(head.predicate));
      }
      tuple.push_back(term.value());
    }
    out->database.Insert(head.predicate, tuple, iv);
    return Status::Ok();
  }

  // --- head atoms ---------------------------------------------------------

  Result<HeadAtom> ParseHeadAtom() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected predicate name");
    }
    HeadAtom head;
    head.predicate = InternPredicate(Next().text);
    DMTL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    if (!Accept(TokenKind::kRParen)) {
      int index = 0;
      while (true) {
        AggKind agg;
        if (Peek().kind == TokenKind::kIdent &&
            IsAggName(Peek().text, &agg) &&
            Peek(1).kind == TokenKind::kLParen) {
          if (head.aggregate.has_value()) {
            return Error("at most one aggregate per head");
          }
          Next();
          Next();
          DMTL_ASSIGN_OR_RETURN(Term inner, ParseTerm());
          DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          AggregateSpec spec;
          spec.kind = agg;
          spec.arg_index = index;
          spec.term = inner;
          head.aggregate = spec;
          head.args.push_back(inner);
        } else {
          DMTL_ASSIGN_OR_RETURN(Term term, ParseTerm());
          head.args.push_back(std::move(term));
        }
        ++index;
        if (Accept(TokenKind::kComma)) continue;
        break;
      }
      DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    return head;
  }

  // --- body literals ------------------------------------------------------

  Result<BodyLiteral> ParseBodyLiteral() {
    bool negated = false;
    if (Peek().kind == TokenKind::kIdent && Peek().text == "not") {
      negated = true;
      Next();
    }
    if (Peek().kind == TokenKind::kIdent && Peek().text == "timestamp" &&
        Peek(1).kind == TokenKind::kLParen) {
      if (negated) return Error("'timestamp' cannot be negated");
      Next();
      Next();
      if (Peek().kind != TokenKind::kVariable) {
        return Error("timestamp() takes a variable");
      }
      int var = VarIndex(Next().text);
      DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      BuiltinAtom atom;
      atom.kind = BuiltinAtom::Kind::kTimestamp;
      atom.var = var;
      return BodyLiteral::Builtin(std::move(atom));
    }
    if (!negated && LiteralLooksBuiltin()) {
      DMTL_ASSIGN_OR_RETURN(BuiltinAtom atom, ParseBuiltin());
      return BodyLiteral::Builtin(std::move(atom));
    }
    DMTL_ASSIGN_OR_RETURN(MetricAtom atom, ParseMetricAtom());
    return BodyLiteral::Metric(std::move(atom), negated);
  }

  // Lookahead to the end of the current literal (',' or '.' at depth 0):
  // a comparison token at depth 0 marks it as a builtin.
  bool LiteralLooksBuiltin() const {
    int depth = 0;
    for (size_t i = pos_; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      switch (t.kind) {
        case TokenKind::kLParen:
        case TokenKind::kLBracket:
          ++depth;
          break;
        case TokenKind::kRParen:
        case TokenKind::kRBracket:
          --depth;
          break;
        case TokenKind::kComma:
        case TokenKind::kDot:
        case TokenKind::kEof:
          if (depth <= 0) return false;
          break;
        default:
          if (depth == 0 && IsCompareToken(t.kind)) return true;
          break;
      }
    }
    return false;
  }

  Result<BuiltinAtom> ParseBuiltin() {
    DMTL_ASSIGN_OR_RETURN(Expr lhs, ParseExpr());
    CmpOp cmp;
    bool plain_eq = false;
    switch (Peek().kind) {
      case TokenKind::kEq:
        cmp = CmpOp::kEq;
        plain_eq = true;
        break;
      case TokenKind::kEqEq:
        cmp = CmpOp::kEq;
        break;
      case TokenKind::kNe:
        cmp = CmpOp::kNe;
        break;
      case TokenKind::kLt:
        cmp = CmpOp::kLt;
        break;
      case TokenKind::kLe:
        cmp = CmpOp::kLe;
        break;
      case TokenKind::kGt:
        cmp = CmpOp::kGt;
        break;
      case TokenKind::kGe:
        cmp = CmpOp::kGe;
        break;
      default:
        return Error("expected comparison operator");
    }
    Next();
    DMTL_ASSIGN_OR_RETURN(Expr rhs, ParseExpr());
    BuiltinAtom atom;
    // `V = expr` is an assignment when V is a bare variable (it degrades to
    // an equality filter at evaluation time when V is already bound).
    if (plain_eq && lhs.op() == Expr::Op::kVar) {
      atom.kind = BuiltinAtom::Kind::kAssign;
      atom.var = lhs.var();
      atom.expr = std::move(rhs);
      return atom;
    }
    atom.kind = BuiltinAtom::Kind::kCompare;
    atom.cmp = cmp;
    atom.lhs = std::move(lhs);
    atom.rhs = std::move(rhs);
    return atom;
  }

  // --- metric atoms -------------------------------------------------------

  Result<MetricAtom> ParseMetricAtom() {
    DMTL_ASSIGN_OR_RETURN(MetricAtom lhs, ParsePrimaryMetric());
    if (Peek().kind == TokenKind::kIdent &&
        (Peek().text == "since" || Peek().text == "until")) {
      MtlOp op = Peek().text == "since" ? MtlOp::kSince : MtlOp::kUntil;
      Next();
      DMTL_ASSIGN_OR_RETURN(Interval range, ParseOptionalRange());
      DMTL_ASSIGN_OR_RETURN(MetricAtom rhs, ParsePrimaryMetric());
      return MetricAtom::Binary(op, range, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<MetricAtom> ParsePrimaryMetric() {
    if (Peek().kind == TokenKind::kLParen) {
      Next();
      DMTL_ASSIGN_OR_RETURN(MetricAtom inner, ParseMetricAtom());
      DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected metric atom");
    }
    MtlOp op;
    if (IsUnaryOpName(Peek().text, &op)) {
      Next();
      DMTL_ASSIGN_OR_RETURN(Interval range, ParseOptionalRange());
      DMTL_ASSIGN_OR_RETURN(MetricAtom child, ParsePrimaryMetric());
      return MetricAtom::Unary(op, range, std::move(child));
    }
    if (Peek().text == "top") {
      Next();
      return MetricAtom::Truth();
    }
    if (Peek().text == "bottom") {
      Next();
      return MetricAtom::Falsity();
    }
    DMTL_ASSIGN_OR_RETURN(RelationalAtom atom, ParseRelationalAtom());
    return MetricAtom::Relational(std::move(atom));
  }

  Result<RelationalAtom> ParseRelationalAtom() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected predicate name");
    }
    RelationalAtom atom;
    atom.predicate = InternPredicate(Next().text);
    DMTL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    if (!Accept(TokenKind::kRParen)) {
      while (true) {
        DMTL_ASSIGN_OR_RETURN(Term term, ParseTerm());
        atom.args.push_back(std::move(term));
        if (Accept(TokenKind::kComma)) continue;
        break;
      }
      DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    return atom;
  }

  Result<Term> ParseTerm() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVariable:
        return Term::Variable(VarIndex(Next().text));
      case TokenKind::kAnon: {
        Next();
        int index = static_cast<int>(var_names_.size());
        var_names_.push_back("_" + std::to_string(index));
        return Term::Variable(index);
      }
      case TokenKind::kIdent: {
        const std::string& text = Next().text;
        // Keyword literals round-trip through serialization.
        if (text == "true") return Term::Constant(Value::Bool(true));
        if (text == "false") return Term::Constant(Value::Bool(false));
        if (text == "null") return Term::Constant(Value::Null());
        return Term::Constant(Value::Symbol(text));
      }
      case TokenKind::kString:
        return Term::Constant(Value::Symbol(Next().text));
      case TokenKind::kNumber:
      case TokenKind::kMinus: {
        DMTL_ASSIGN_OR_RETURN(Value v, ParseNumberValue());
        return Term::Constant(std::move(v));
      }
      default:
        return Error("expected term");
    }
  }

  Result<Value> ParseNumberValue() {
    bool negative = Accept(TokenKind::kMinus);
    if (Peek().kind != TokenKind::kNumber) return Error("expected number");
    std::string text = Next().text;
    // strtod/strtoll rather than stod/stoll: an out-of-range literal is a
    // parse error, never an exception escaping the parser.
    errno = 0;
    if (text.find('.') != std::string::npos ||
        text.find('e') != std::string::npos ||
        text.find('E') != std::string::npos) {
      double d = std::strtod(text.c_str(), nullptr);
      if (errno == ERANGE) return Error("number out of range: " + text);
      return Value::Double(negative ? -d : d);
    }
    int64_t i = std::strtoll(text.c_str(), nullptr, 10);
    if (errno == ERANGE) return Error("number out of range: " + text);
    return Value::Int(negative ? -i : i);
  }

  // --- expressions --------------------------------------------------------

  Result<Expr> ParseExpr() { return ParseAddSub(); }

  Result<Expr> ParseAddSub() {
    DMTL_ASSIGN_OR_RETURN(Expr lhs, ParseMulDiv());
    while (Peek().kind == TokenKind::kPlus ||
           Peek().kind == TokenKind::kMinus) {
      Expr::Op op = Peek().kind == TokenKind::kPlus ? Expr::Op::kAdd
                                                    : Expr::Op::kSub;
      Next();
      DMTL_ASSIGN_OR_RETURN(Expr rhs, ParseMulDiv());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Expr> ParseMulDiv() {
    DMTL_ASSIGN_OR_RETURN(Expr lhs, ParseUnaryExpr());
    while (Peek().kind == TokenKind::kStar ||
           Peek().kind == TokenKind::kSlash) {
      Expr::Op op = Peek().kind == TokenKind::kStar ? Expr::Op::kMul
                                                    : Expr::Op::kDiv;
      Next();
      DMTL_ASSIGN_OR_RETURN(Expr rhs, ParseUnaryExpr());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Expr> ParseUnaryExpr() {
    if (Accept(TokenKind::kMinus)) {
      DMTL_ASSIGN_OR_RETURN(Expr child, ParseUnaryExpr());
      return Expr::Unary(Expr::Op::kNeg, std::move(child));
    }
    return ParsePrimaryExpr();
  }

  Result<Expr> ParsePrimaryExpr() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kNumber: {
        DMTL_ASSIGN_OR_RETURN(Value v, ParseNumberValue());
        return Expr::Const(std::move(v));
      }
      case TokenKind::kVariable:
        return Expr::Var(VarIndex(Next().text));
      case TokenKind::kLParen: {
        Next();
        DMTL_ASSIGN_OR_RETURN(Expr inner, ParseExpr());
        DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kIdent: {
        const std::string name = t.text;
        if (name == "abs" || name == "min" || name == "max") {
          Next();
          DMTL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
          DMTL_ASSIGN_OR_RETURN(Expr first, ParseExpr());
          if (name == "abs") {
            DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
            return Expr::Unary(Expr::Op::kAbs, std::move(first));
          }
          DMTL_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
          DMTL_ASSIGN_OR_RETURN(Expr second, ParseExpr());
          DMTL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          Expr::Op op = name == "min" ? Expr::Op::kMin : Expr::Op::kMax;
          return Expr::Binary(op, std::move(first), std::move(second));
        }
        // A bare symbol constant (usable in equality filters).
        Next();
        return Expr::Const(Value::Symbol(name));
      }
      default:
        return Error("expected expression");
    }
  }

  // --- ranges -------------------------------------------------------------

  // Parses "[lo,hi]" / "(lo,hi]" / ... after a metric operator; when the
  // next token does not open a range, defaults to [1,1] (the paper's
  // convention for the omitted subscript).
  Result<Interval> ParseOptionalRange() {
    if (Peek().kind == TokenKind::kLBracket) {
      return ParseRange(/*require_nonnegative=*/true);
    }
    // '(' after an operator would be ambiguous with a parenthesized metric
    // atom; operator ranges with an open lower bound therefore require the
    // bracket form "[" to be absent only in the default case.
    return Interval::Closed(Rational(1), Rational(1));
  }

  Result<Interval> ParseRange(bool require_nonnegative) {
    bool lo_open;
    if (Accept(TokenKind::kLBracket)) {
      lo_open = false;
    } else if (Accept(TokenKind::kLParen)) {
      lo_open = true;
    } else {
      return Error("expected '[' or '(' to open interval");
    }
    DMTL_ASSIGN_OR_RETURN(Bound lo, ParseBound(lo_open));
    DMTL_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
    DMTL_ASSIGN_OR_RETURN(Bound hi, ParseBound(/*open=*/false));
    if (Accept(TokenKind::kRBracket)) {
      // hi stays as parsed (closed) unless infinite.
    } else if (Accept(TokenKind::kRParen)) {
      hi.open = true;
    } else {
      return Error("expected ']' or ')' to close interval");
    }
    if (require_nonnegative &&
        ((!lo.infinite && lo.value.is_negative()) ||
         (!hi.infinite && hi.value.is_negative()))) {
      return Error("metric operator ranges must have non-negative bounds");
    }
    auto iv = Interval::Make(lo, hi);
    if (!iv.has_value()) return Error("empty interval");
    return *iv;
  }

  Result<Bound> ParseBound(bool open) {
    if (Peek().kind == TokenKind::kIdent && Peek().text == "inf") {
      Next();
      return Bound::Infinite();
    }
    if (Peek().kind == TokenKind::kMinus &&
        Peek(1).kind == TokenKind::kIdent && Peek(1).text == "inf") {
      Next();
      Next();
      return Bound::Infinite();
    }
    if (Peek().kind == TokenKind::kPlus && Peek(1).kind == TokenKind::kIdent &&
        Peek(1).text == "inf") {
      Next();
      Next();
      return Bound::Infinite();
    }
    DMTL_ASSIGN_OR_RETURN(Rational r, ParseSignedRational());
    Bound b;
    b.value = r;
    b.open = open;
    b.infinite = false;
    return b;
  }

  Result<Rational> ParseSignedRational() {
    bool negative = Accept(TokenKind::kMinus);
    if (Peek().kind != TokenKind::kNumber) return Error("expected number");
    std::string text = Next().text;
    // "3/4" rationals: a '/' directly after the number.
    if (Peek().kind == TokenKind::kSlash &&
        Peek(1).kind == TokenKind::kNumber) {
      Next();
      text += "/" + Next().text;
    }
    DMTL_ASSIGN_OR_RETURN(Rational r, Rational::FromString(text));
    return negative ? -r : r;
  }

  int VarIndex(const std::string& name) {
    auto it = var_indices_.find(name);
    if (it != var_indices_.end()) return it->second;
    int index = static_cast<int>(var_names_.size());
    var_names_.push_back(name);
    var_indices_.emplace(name, index);
    return index;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::map<std::string, int> var_indices_;
  std::vector<std::string> var_names_;
};

}  // namespace

Result<Parser::ParsedUnit> Parser::Parse(const std::string& text) {
  DMTL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  ParserImpl impl(std::move(tokens));
  ParsedUnit unit;
  DMTL_RETURN_IF_ERROR(impl.ParseUnit(&unit));
  return unit;
}

Result<Program> Parser::ParseProgram(const std::string& text) {
  DMTL_ASSIGN_OR_RETURN(ParsedUnit unit, Parse(text));
  if (unit.database.NumPredicates() > 0) {
    return Status::ParseError("expected rules only, found facts");
  }
  return std::move(unit.program);
}

Result<Database> Parser::ParseDatabase(const std::string& text) {
  DMTL_ASSIGN_OR_RETURN(ParsedUnit unit, Parse(text));
  if (unit.program.size() > 0) {
    return Status::ParseError("expected facts only, found rules");
  }
  return std::move(unit.database);
}

Result<Rule> Parser::ParseRule(const std::string& text) {
  DMTL_ASSIGN_OR_RETURN(Program program, ParseProgram(text));
  if (program.size() != 1) {
    return Status::ParseError("expected exactly one rule");
  }
  return program.rules()[0];
}

}  // namespace dmtl
