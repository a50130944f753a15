//! Recursive-descent SQL parser.
//!
//! SQL text can nest without limit, but the parser, the planner and even
//! dropping the AST recurse once per level, so a deep enough input would
//! overflow the thread's stack and abort the process. [`MAX_DEPTH`] bounds
//! both recursions: deeper input is a [`ParseError`].

use crate::ast::*;
use crate::lexer::{tokenize, Keyword, LexError, Token, TokenKind};
use iolap_relation::Value;
use std::convert::Infallible;
use std::fmt;

/// The deepest SQL the parser accepts, in two senses. No expression it
/// builds is higher than this (a column or literal is 1 high, and every
/// operator, call, `CASE` and subquery is one higher than the highest
/// expression it holds, so a left-deep `a + a + …` chain of n terms is n
/// high), and the parser itself nests at most this many levels (one per
/// parenthesis, per operand of `NOT` or unary `-`/`+`, and per expression
/// inside a call, `CASE`, `IN` list or subquery, the outermost expression
/// being level 1). Anything deeper is a [`ParseError`]. At 64 an
/// unoptimized build parses, plans and executes the deepest accepted input
/// in about half of a default 2 MiB thread stack; the workload queries are
/// at most 9 high.
pub const MAX_DEPTH: usize = 64;

/// Parser errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token (message, offset).
    Unexpected(String, usize),
    /// Input ended prematurely.
    UnexpectedEof(String),
    /// Feature outside the supported dialect (e.g. `NOT EXISTS`).
    Unsupported(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: {e}"),
            ParseError::Unexpected(m, o) => write!(f, "parse error at offset {o}: {m}"),
            ParseError::UnexpectedEof(m) => write!(f, "unexpected end of input: expected {m}"),
            ParseError::Unsupported(m) => write!(f, "unsupported SQL: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let q = p.parse_query()?;
    p.eat_if(&TokenKind::Semicolon);
    if let Some(t) = p.peek() {
        return Err(ParseError::Unexpected(
            format!("trailing input `{:?}`", t.kind),
            t.offset,
        ));
    }
    Ok(Statement::Query(q))
}

/// Parse a query (no trailing-token check); used for subqueries in tests.
pub fn parse_query(sql: &str) -> Result<Query, ParseError> {
    match parse(sql)? {
        Statement::Query(q) => Ok(q),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parse levels entered so far (see [`MAX_DEPTH`]).
    depth: usize,
}

/// Height of the expression tree under `e` (see [`MAX_DEPTH`]), subquery
/// bodies included.
fn height(e: &Expr) -> usize {
    let mut h = match e {
        Expr::ScalarSubquery(q) | Expr::InSubquery { subquery: q, .. } => query_height(q),
        _ => 0,
    };
    let Ok(()) = e.try_visit_children(|c| {
        h = h.max(height(c));
        Ok::<(), Infallible>(())
    });
    h + 1
}

/// Height of the highest expression anywhere in `q`.
fn query_height(q: &Query) -> usize {
    let order = q.order_by.iter().map(|o| &o.expr);
    let blocks = q.branches.iter().flat_map(|b| {
        let items = b.items.iter().filter_map(|i| match i {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Wildcard => None,
        });
        items
            .chain(&b.join_predicates)
            .chain(&b.where_clause)
            .chain(&b.group_by)
            .chain(&b.having)
    });
    order.chain(blocks).map(height).max().unwrap_or(0)
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<&TokenKind> {
        self.peek().map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_if(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat_if(&TokenKind::Keyword(kw))
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(ParseError::Unexpected(
                format!("expected {what}, found {:?}", t.kind),
                t.offset,
            )),
            None => Err(ParseError::UnexpectedEof(what.to_string())),
        }
    }

    fn too_deep(&self) -> ParseError {
        let at = self.peek().or(self.tokens.last()).map_or(0, |t| t.offset);
        ParseError::Unexpected(format!("SQL nested deeper than {MAX_DEPTH} levels"), at)
    }

    /// Run `f` one parse level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The height of `left op right`, given `left`'s height.
    fn grow(&self, left: usize, right: &Expr) -> Result<usize, ParseError> {
        let h = left.max(height(right)) + 1;
        if h > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(h)
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        self.expect(&TokenKind::Keyword(kw), &format!("{kw:?}"))
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => Ok(s),
            Some(t) => Err(ParseError::Unexpected(
                format!("expected {what}, found {:?}", t.kind),
                t.offset,
            )),
            None => Err(ParseError::UnexpectedEof(what.to_string())),
        }
    }

    // query := select_block (UNION ALL select_block)* [ORDER BY ...] [LIMIT n]
    fn parse_query(&mut self) -> Result<Query, ParseError> {
        let mut branches = vec![self.parse_select_block()?];
        while self.eat_keyword(Keyword::Union) {
            if !self.eat_keyword(Keyword::All) {
                return Err(ParseError::Unsupported(
                    "UNION DISTINCT requires set difference; only UNION ALL is supported".into(),
                ));
            }
            branches.push(self.parse_select_block()?);
        }
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_keyword(Keyword::Desc) {
                    false
                } else {
                    self.eat_keyword(Keyword::Asc);
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_keyword(Keyword::Limit) {
            match self.next() {
                Some(Token {
                    kind: TokenKind::Int(n),
                    ..
                }) if n >= 0 => limit = Some(n as u64),
                Some(t) => {
                    return Err(ParseError::Unexpected(
                        "expected non-negative LIMIT count".into(),
                        t.offset,
                    ))
                }
                None => return Err(ParseError::UnexpectedEof("LIMIT count".into())),
            }
        }
        Ok(Query {
            branches,
            order_by,
            limit,
        })
    }

    fn parse_select_block(&mut self) -> Result<SelectBlock, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        if self.eat_keyword(Keyword::Distinct) {
            return Err(ParseError::Unsupported(
                "SELECT DISTINCT: use GROUP BY (duplicate elimination is expressed via AGGREGATE, §4.1 fn.7)"
                    .into(),
            ));
        }
        let mut items = Vec::new();
        loop {
            if self.eat_if(&TokenKind::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = self.parse_alias()?;
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        let mut join_predicates = Vec::new();
        if self.eat_keyword(Keyword::From) {
            loop {
                from.push(self.parse_table_ref()?);
                // JOIN ... ON chains
                loop {
                    let has_inner = self.eat_keyword(Keyword::Inner);
                    if self.eat_keyword(Keyword::Join) {
                        from.push(self.parse_table_ref()?);
                        self.expect_keyword(Keyword::On)?;
                        join_predicates.push(self.parse_expr()?);
                    } else if has_inner {
                        return Err(ParseError::Unsupported("INNER without JOIN".into()));
                    } else {
                        break;
                    }
                }
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        Ok(SelectBlock {
            items,
            from,
            join_predicates,
            where_clause,
            group_by,
            having,
        })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.expect_ident("table name")?;
        let alias = self.parse_alias()?;
        Ok(TableRef { name, alias })
    }

    fn parse_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_keyword(Keyword::As) {
            return Ok(Some(self.expect_ident("alias")?));
        }
        // Bare alias: an identifier not starting a clause.
        if let Some(TokenKind::Ident(_)) = self.peek_kind() {
            if let Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) = self.next()
            {
                return Ok(Some(s));
            }
        }
        Ok(None)
    }

    // Precedence climbing: OR < AND < NOT < predicate < add < mul < unary.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let e = self.nested(Self::parse_or)?;
        if height(&e) > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(e)
    }

    /// A left-deep chain `operand (op operand)*`; `op` names the operator a
    /// token stands for at this precedence level.
    fn parse_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, ParseError>,
        op: fn(&TokenKind) -> Option<BinaryOp>,
    ) -> Result<Expr, ParseError> {
        let mut left = operand(self)?;
        let mut h = height(&left);
        while let Some(op) = self.peek_kind().and_then(op) {
            self.pos += 1;
            let right = operand(self)?;
            h = self.grow(h, &right)?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain(Self::parse_and, |t| {
            (*t == TokenKind::Keyword(Keyword::Or)).then_some(BinaryOp::Or)
        })
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain(Self::parse_not, |t| {
            (*t == TokenKind::Keyword(Keyword::And)).then_some(BinaryOp::And)
        })
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword(Keyword::Not) {
            if self.peek_kind() == Some(&TokenKind::Keyword(Keyword::Exists)) {
                return Err(ParseError::Unsupported(
                    "NOT EXISTS requires set difference, which is outside positive relational algebra (§3.3)"
                        .into(),
                ));
            }
            let inner = self.nested(Self::parse_not)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;

        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
            });
        }

        if self.eat_keyword(Keyword::Like) {
            match self.next() {
                Some(Token {
                    kind: TokenKind::Str(p),
                    ..
                }) => {
                    return Ok(Expr::Like {
                        expr: Box::new(left),
                        pattern: p,
                    })
                }
                Some(t) => {
                    return Err(ParseError::Unexpected(
                        "LIKE pattern must be a string literal".into(),
                        t.offset,
                    ))
                }
                None => return Err(ParseError::UnexpectedEof("LIKE pattern".into())),
            }
        }

        if self.eat_keyword(Keyword::In) {
            self.expect(&TokenKind::LParen, "(")?;
            if self.peek_kind() == Some(&TokenKind::Keyword(Keyword::Select)) {
                let sub = self.parse_query()?;
                self.expect(&TokenKind::RParen, ")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(sub),
                });
            }
            // IN (v1, v2, ...) desugars to an OR chain of equalities.
            let mut alternatives = Vec::new();
            loop {
                alternatives.push(self.parse_expr()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, ")")?;
            let mut it = alternatives.into_iter();
            let first = it
                .next()
                .ok_or_else(|| ParseError::Unsupported("empty IN list".into()))?;
            let mut acc = Expr::binary(left.clone(), BinaryOp::Eq, first);
            let mut h = height(&acc);
            for alt in it {
                let eq = Expr::binary(left.clone(), BinaryOp::Eq, alt);
                h = self.grow(h, &eq)?;
                acc = Expr::binary(acc, BinaryOp::Or, eq);
            }
            return Ok(acc);
        }

        let op = match self.peek_kind() {
            Some(TokenKind::Eq) => Some(BinaryOp::Eq),
            Some(TokenKind::Neq) => Some(BinaryOp::Neq),
            Some(TokenKind::Lt) => Some(BinaryOp::Lt),
            Some(TokenKind::Le) => Some(BinaryOp::Le),
            Some(TokenKind::Gt) => Some(BinaryOp::Gt),
            Some(TokenKind::Ge) => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain(Self::parse_multiplicative, |t| match t {
            TokenKind::Plus => Some(BinaryOp::Add),
            TokenKind::Minus => Some(BinaryOp::Sub),
            _ => None,
        })
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain(Self::parse_unary, |t| match t {
            TokenKind::Star => Some(BinaryOp::Mul),
            TokenKind::Slash => Some(BinaryOp::Div),
            TokenKind::Percent => Some(BinaryOp::Mod),
            _ => None,
        })
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_if(&TokenKind::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_if(&TokenKind::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let t = self
            .next()
            .ok_or_else(|| ParseError::UnexpectedEof("expression".into()))?;
        match t.kind {
            TokenKind::Int(n) => Ok(Expr::Literal(Value::Int(n))),
            TokenKind::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::str(s))),
            TokenKind::Keyword(Keyword::Null) => Ok(Expr::Literal(Value::Null)),
            TokenKind::Keyword(Keyword::True) => Ok(Expr::Literal(Value::Bool(true))),
            TokenKind::Keyword(Keyword::False) => Ok(Expr::Literal(Value::Bool(false))),
            TokenKind::Keyword(Keyword::Case) => self.parse_case(),
            TokenKind::Keyword(Keyword::Exists) => Err(ParseError::Unsupported(
                "EXISTS: rewrite as IN (SELECT …) semi-join".into(),
            )),
            TokenKind::LParen => {
                if self.peek_kind() == Some(&TokenKind::Keyword(Keyword::Select)) {
                    let q = self.parse_query()?;
                    self.expect(&TokenKind::RParen, ")")?;
                    Ok(Expr::ScalarSubquery(Box::new(q)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(&TokenKind::RParen, ")")?;
                    Ok(e)
                }
            }
            TokenKind::Ident(name) => {
                // Function call?
                if self.peek_kind() == Some(&TokenKind::LParen) {
                    self.next();
                    let fname = name.to_ascii_uppercase();
                    let mut distinct = false;
                    let mut args = Vec::new();
                    if self.eat_if(&TokenKind::Star) {
                        // COUNT(*)
                        self.expect(&TokenKind::RParen, ")")?;
                        return Ok(Expr::Function {
                            name: fname,
                            args,
                            distinct,
                        });
                    }
                    if self.eat_keyword(Keyword::Distinct) {
                        distinct = true;
                    }
                    if !self.eat_if(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_if(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(&TokenKind::RParen, ")")?;
                    }
                    return Ok(Expr::Function {
                        name: fname,
                        args,
                        distinct,
                    });
                }
                // Qualified column?
                if self.eat_if(&TokenKind::Dot) {
                    let col = self.expect_ident("column name")?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(ParseError::Unexpected(
                format!("unexpected token {other:?} in expression"),
                t.offset,
            )),
        }
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        let mut when_then = Vec::new();
        while self.eat_keyword(Keyword::When) {
            let cond = self.parse_expr()?;
            self.expect_keyword(Keyword::Then)?;
            let val = self.parse_expr()?;
            when_then.push((cond, val));
        }
        if when_then.is_empty() {
            return Err(ParseError::Unsupported(
                "CASE without WHEN arms (simple CASE form not supported)".into(),
            ));
        }
        let else_expr = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword(Keyword::End)?;
        Ok(Expr::Case {
            when_then,
            else_expr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(sql: &str) -> SelectBlock {
        parse_query(sql).unwrap().branches.remove(0)
    }

    #[test]
    fn parse_sbi() {
        let b = block(
            "SELECT AVG(play_time) FROM Sessions \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM Sessions)",
        );
        assert_eq!(b.from.len(), 1);
        assert_eq!(b.from[0].name, "Sessions");
        let w = b.where_clause.unwrap();
        match w {
            Expr::Binary { op, right, .. } => {
                assert_eq!(op, BinaryOp::Gt);
                assert!(matches!(*right, Expr::ScalarSubquery(_)));
            }
            other => panic!("unexpected where: {other:?}"),
        }
    }

    #[test]
    fn parse_group_by_having() {
        let b = block(
            "SELECT city, SUM(play_time) AS total FROM sessions \
             GROUP BY city HAVING SUM(play_time) > 100",
        );
        assert_eq!(b.group_by.len(), 1);
        assert!(b.having.is_some());
        match &b.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_in_subquery() {
        let b = block(
            "SELECT o_orderkey FROM lineorder WHERE o_orderkey IN \
             (SELECT l_orderkey FROM lineorder GROUP BY l_orderkey HAVING SUM(l_quantity) > 300)",
        );
        assert!(matches!(b.where_clause.unwrap(), Expr::InSubquery { .. }));
    }

    #[test]
    fn parse_in_value_list_desugars() {
        let b = block("SELECT a FROM t WHERE a IN (1, 2, 3)");
        // ((a=1) OR a=2) OR a=3
        let w = b.where_clause.unwrap();
        match w {
            Expr::Binary { op, .. } => assert_eq!(op, BinaryOp::Or),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_operator_precedence() {
        let b = block("SELECT a FROM t WHERE a + 2 * 3 > 7 AND b < 1 OR c = 2");
        // OR at top
        match b.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::Or,
                left,
                ..
            } => match *left {
                Expr::Binary {
                    op: BinaryOp::And, ..
                } => {}
                other => panic!("expected AND under OR, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_count_star_and_distinct() {
        let b = block("SELECT COUNT(*), COUNT(DISTINCT uid) FROM t");
        match &b.items[0] {
            SelectItem::Expr {
                expr: Expr::Function { name, args, .. },
                ..
            } => {
                assert_eq!(name, "COUNT");
                assert!(args.is_empty());
            }
            _ => panic!(),
        }
        match &b.items[1] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(*distinct),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_join_on_syntax() {
        let b = block(
            "SELECT * FROM lineorder l JOIN customer c ON l.lo_custkey = c.c_custkey \
             WHERE c.c_mktsegment = 'BUILDING'",
        );
        assert_eq!(b.from.len(), 2);
        assert_eq!(b.from[0].effective_name(), "l");
        assert_eq!(b.join_predicates.len(), 1);
    }

    #[test]
    fn parse_between_and_like() {
        let b = block("SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND name LIKE 'x%'");
        match b.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                assert!(matches!(*left, Expr::Between { .. }));
                assert!(matches!(*right, Expr::Like { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_case_when() {
        let b = block("SELECT SUM(CASE WHEN a > 1 THEN b ELSE 0 END) FROM t");
        match &b.items[0] {
            SelectItem::Expr {
                expr: Expr::Function { args, .. },
                ..
            } => assert!(matches!(args[0], Expr::Case { .. })),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_union_all_order_limit() {
        let q = parse_query("SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a DESC LIMIT 5")
            .unwrap();
        assert_eq!(q.branches.len(), 2);
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].asc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn reject_not_exists() {
        let err = parse_query("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)").unwrap_err();
        assert!(matches!(err, ParseError::Unsupported(_)));
    }

    #[test]
    fn reject_union_distinct() {
        let err = parse_query("SELECT a FROM t UNION SELECT a FROM u").unwrap_err();
        assert!(matches!(err, ParseError::Unsupported(_)));
    }

    #[test]
    fn reject_trailing_tokens() {
        assert!(parse("SELECT 1 FROM t garbage garbage").is_err());
    }

    #[test]
    fn parse_correlated_subquery() {
        // Q17-style: inner references outer alias.
        let b = block(
            "SELECT SUM(l.lo_extendedprice) FROM lineorder l \
             WHERE l.lo_quantity < (SELECT 0.2 * AVG(i.lo_quantity) FROM lineorder i \
                                    WHERE i.lo_partkey = l.lo_partkey)",
        );
        let w = b.where_clause.unwrap();
        match w {
            Expr::Binary { right, .. } => assert!(matches!(*right, Expr::ScalarSubquery(_))),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_semicolon_terminated() {
        assert!(parse("SELECT 1 FROM t;").is_ok());
    }

    #[test]
    fn parse_arithmetic_unary_minus() {
        let b = block("SELECT -a + 3 FROM t");
        match &b.items[0] {
            SelectItem::Expr {
                expr: Expr::Binary { left, .. },
                ..
            } => assert!(matches!(
                **left,
                Expr::Unary {
                    op: UnaryOp::Neg,
                    ..
                }
            )),
            _ => panic!(),
        }
    }

    #[test]
    fn depth_is_bounded_at_max_depth() {
        let item = |e: String| parse(&format!("SELECT {e} FROM t"));
        let parens = |n| item(format!("{}1{}", "(".repeat(n), ")".repeat(n)));
        let negations = |n| item(format!("{}1", "NOT ".repeat(n)));
        let chain = |n| item(vec!["a"; n].join(" * "));
        let in_list = |n| item(format!("a IN ({})", vec!["1"; n].join(", ")));
        // The outermost expression is level 1, each parenthesis one more.
        assert!(parens(MAX_DEPTH - 1).is_ok());
        assert!(parens(MAX_DEPTH).is_err());
        assert!(negations(MAX_DEPTH - 1).is_ok());
        assert!(negations(MAX_DEPTH).is_err());
        assert!(chain(MAX_DEPTH).is_ok());
        assert!(chain(MAX_DEPTH + 1).is_err());
        // `a IN (v1, …, vn)` is `a = v1 OR … OR a = vn`: n + 1 high.
        assert!(in_list(MAX_DEPTH - 1).is_ok());
        assert!(in_list(MAX_DEPTH).is_err());
    }
}
