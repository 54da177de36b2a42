//! Recursive-descent SQL parser.

use super::ast::*;
use super::lexer::{tokenize, Token};
use crate::error::{DbError, Result};
use crate::expr::{BinOp, Expr};
use std::collections::BTreeMap;
use vdr_columnar::{DataType, Value};

/// Parse one SQL statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.accept_token(&Token::Semicolon);
    if let Some(tok) = p.peek() {
        return Err(DbError::Parse(format!("unexpected trailing token '{tok}'")));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Words that terminate an implicit alias.
const RESERVED: &[&str] = &[
    "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "OFFSET", "AND", "OR", "NOT", "AS", "OVER",
    "USING", "SELECT", "BY", "ASC", "DESC", "IS", "NULL", "VALUES", "IN", "BETWEEN", "LIKE",
    "DISTINCT", "JOIN", "ON", "INNER", "LEFT", "OUTER",
];

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Result<Token> {
        let tok = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DbError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(tok)
    }

    fn expect_token(&mut self, want: &Token) -> Result<()> {
        let tok = self.next()?;
        if &tok != want {
            return Err(DbError::Parse(format!("expected '{want}', found '{tok}'")));
        }
        Ok(())
    }

    fn accept_token(&mut self, want: &Token) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn accept_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected '{kw}', found '{}'",
                self.peek()
                    .map_or("end of input".to_string(), |t| t.to_string())
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(DbError::Parse(format!(
                "expected identifier, found '{other}'"
            ))),
        }
    }

    /// An optionally schema-qualified name (`t` or `v_monitor.metrics`),
    /// flattened to one dotted string for table resolution.
    fn qualified_ident(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.accept_token(&Token::Dot) {
            let second = self.ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    // ------------------------------------------------------------ statements

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.accept_kw("PROFILE") {
            return Ok(Statement::Profile(Box::new(self.parse_statement()?)));
        }
        if self.accept_kw("TRACE") {
            return Ok(Statement::Trace(Box::new(self.parse_statement()?)));
        }
        if self.accept_kw("EXPLAIN") {
            return match self.parse_statement()? {
                Statement::Select(select) => Ok(Statement::Explain(Box::new(select))),
                _ => Err(DbError::Parse("EXPLAIN takes a SELECT".into())),
            };
        }
        if self.accept_kw("SELECT") {
            Ok(Statement::Select(self.parse_select()?))
        } else if self.accept_kw("CREATE") {
            self.parse_create()
        } else if self.accept_kw("INSERT") {
            self.parse_insert()
        } else if self.accept_kw("DROP") {
            self.parse_drop()
        } else {
            Err(DbError::Parse(format!(
                "expected a statement, found '{}'",
                self.peek()
                    .map_or("end of input".to_string(), |t| t.to_string())
            )))
        }
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        if self.accept_kw("AS") {
            self.expect_kw("SELECT")?;
            let query = self.parse_select()?;
            return Ok(Statement::CreateTableAs {
                name,
                query: Box::new(query),
            });
        }
        self.expect_token(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let dtype = self.parse_type()?;
            columns.push((col, dtype));
            if !self.accept_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        let segmentation = if self.accept_kw("SEGMENTED") {
            if self.accept_kw("BY") {
                self.expect_kw("HASH")?;
                self.expect_token(&Token::LParen)?;
                let col = self.ident()?;
                self.expect_token(&Token::RParen)?;
                Some(SegSpec::Hash(col))
            } else {
                self.expect_kw("ROUND")?;
                self.expect_kw("ROBIN")?;
                Some(SegSpec::RoundRobin)
            }
        } else if self.accept_kw("UNSEGMENTED") {
            Some(SegSpec::RoundRobin)
        } else {
            None
        };
        Ok(Statement::CreateTable {
            name,
            columns,
            segmentation,
        })
    }

    fn parse_type(&mut self) -> Result<DataType> {
        let name = self.ident()?;
        let dtype = match name.to_ascii_uppercase().as_str() {
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" => DataType::Int64,
            "FLOAT" | "DOUBLE" | "REAL" | "NUMERIC" => DataType::Float64,
            "BOOLEAN" | "BOOL" => DataType::Bool,
            "VARCHAR" | "TEXT" | "CHAR" => {
                // Optional length, ignored (all strings are unbounded here).
                if self.accept_token(&Token::LParen) {
                    self.next()?;
                    self.expect_token(&Token::RParen)?;
                }
                DataType::Varchar
            }
            other => return Err(DbError::Parse(format!("unknown type '{other}'"))),
        };
        Ok(dtype)
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_token(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.accept_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            rows.push(row);
            if !self.accept_token(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let if_exists = if self.accept_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    // ---------------------------------------------------------------- select

    fn parse_select(&mut self) -> Result<SelectStmt> {
        let mut stmt = SelectStmt {
            items: vec![self.parse_select_item()?],
            ..Default::default()
        };
        while self.accept_token(&Token::Comma) {
            stmt.items.push(self.parse_select_item()?);
        }
        if self.accept_kw("FROM") {
            stmt.from = Some(self.qualified_ident()?);
            stmt.from_alias = self.parse_alias()?;
            stmt.join = self.parse_join()?;
        }
        if self.accept_kw("WHERE") {
            stmt.where_clause = Some(self.parse_expr()?);
        }
        if self.accept_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                stmt.group_by.push(self.parse_expr()?);
                if !self.accept_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.accept_kw("DESC") {
                    true
                } else {
                    self.accept_kw("ASC");
                    false
                };
                stmt.order_by.push(OrderKey { expr, desc });
                if !self.accept_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.accept_kw("LIMIT") {
            stmt.limit = Some(self.parse_u64()?);
        }
        if self.accept_kw("OFFSET") {
            stmt.offset = Some(self.parse_u64()?);
        }
        Ok(stmt)
    }

    fn parse_u64(&mut self) -> Result<u64> {
        match self.next()? {
            Token::Int(v) if v >= 0 => Ok(v as u64),
            other => Err(DbError::Parse(format!(
                "expected a non-negative integer, found '{other}'"
            ))),
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.accept_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // A leading `name(` may be an aggregate, a transform, or a scalar
        // function inside a larger expression.
        if let (Some(Token::Ident(name)), Some(Token::LParen)) = (self.peek(), self.peek2()) {
            let name = name.clone();
            if !is_reserved(&name) {
                self.pos += 2; // consume name and '('
                let call = self.parse_call_body(&name)?;
                if self.accept_kw("OVER") {
                    self.expect_token(&Token::LParen)?;
                    self.expect_kw("PARTITION")?;
                    let partition = if self.accept_kw("BEST") {
                        Partition::Best
                    } else {
                        self.expect_kw("BY")?;
                        Partition::By(self.ident()?)
                    };
                    self.expect_token(&Token::RParen)?;
                    return Ok(SelectItem::Transform {
                        name,
                        args: call.args,
                        params: call.params,
                        partition,
                    });
                }
                if let Some(func) = AggFunc::from_name(&name) {
                    if !call.params.is_empty() {
                        return Err(DbError::Parse(format!(
                            "aggregate {name} takes no USING PARAMETERS"
                        )));
                    }
                    if call.distinct && func != AggFunc::Count {
                        return Err(DbError::Parse(format!(
                            "DISTINCT is only supported in COUNT, not {name}"
                        )));
                    }
                    let arg = match (call.star, call.args.len()) {
                        (true, 0) if func == AggFunc::Count => None,
                        (false, 1) => Some(call.args.into_iter().next().expect("one arg")),
                        _ => {
                            return Err(DbError::Parse(format!(
                                "aggregate {name} takes exactly one argument (or * for COUNT)"
                            )))
                        }
                    };
                    if call.distinct && arg.is_none() {
                        return Err(DbError::Parse("COUNT(DISTINCT *) is not valid".into()));
                    }
                    let alias = self.parse_alias()?;
                    return Ok(SelectItem::Aggregate {
                        func,
                        arg,
                        distinct: call.distinct,
                        alias,
                    });
                }
                if !call.params.is_empty() {
                    return Err(DbError::Parse(format!(
                        "USING PARAMETERS requires an OVER clause on {name}"
                    )));
                }
                if call.star {
                    return Err(DbError::Parse(format!("'*' not valid in call to {name}")));
                }
                if call.distinct {
                    return Err(DbError::Parse(format!(
                        "DISTINCT not valid in call to {name}"
                    )));
                }
                // A scalar function: fold it back into expression parsing so
                // `sqrt(x) + 1` works.
                let primary = Expr::Func {
                    name,
                    args: call.args,
                };
                let expr = self.parse_binary_continuation(primary, 0)?;
                let alias = self.parse_alias()?;
                return Ok(SelectItem::Expr { expr, alias });
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[INNER | LEFT [OUTER]] JOIN t [alias] ON a.x = b.y`, or `None` when
    /// no join keyword follows the FROM table.
    fn parse_join(&mut self) -> Result<Option<JoinClause>> {
        let kind = if self.accept_kw("INNER") {
            self.expect_kw("JOIN")?;
            JoinKind::Inner
        } else if self.accept_kw("LEFT") {
            self.accept_kw("OUTER");
            self.expect_kw("JOIN")?;
            JoinKind::Left
        } else if self.accept_kw("JOIN") {
            JoinKind::Inner
        } else {
            return Ok(None);
        };
        let table = self.qualified_ident()?;
        let alias = self.parse_alias()?;
        self.expect_kw("ON")?;
        let left_key = self.qualified_ident()?;
        self.expect_token(&Token::Eq)?;
        let right_key = self.qualified_ident()?;
        Ok(Some(JoinClause {
            kind,
            table,
            alias,
            left_key,
            right_key,
        }))
    }

    fn parse_alias(&mut self) -> Result<Option<String>> {
        if self.accept_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if let Some(Token::Ident(name)) = self.peek() {
            if !is_reserved(name) {
                let name = name.clone();
                self.pos += 1;
                return Ok(Some(name));
            }
        }
        Ok(None)
    }

    /// Arguments plus optional `USING PARAMETERS k='v', …`; consumes the
    /// closing paren.
    fn parse_call_body(&mut self, name: &str) -> Result<Call> {
        let mut call = Call::default();
        if self.accept_token(&Token::RParen) {
            return Ok(call);
        }
        if self.accept_kw("DISTINCT") {
            call.distinct = true;
        }
        if self.accept_token(&Token::Star) {
            call.star = true;
        } else if !self.peek_kw("USING") {
            loop {
                call.args.push(self.parse_expr()?);
                if !self.accept_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.accept_kw("USING") {
            self.expect_kw("PARAMETERS")?;
            loop {
                let key = self.ident()?;
                self.expect_token(&Token::Eq)?;
                let value = match self.next()? {
                    Token::Str(s) => s,
                    Token::Int(v) => v.to_string(),
                    Token::Float(v) => v.to_string(),
                    Token::Ident(s) => s,
                    other => {
                        return Err(DbError::Parse(format!(
                            "bad parameter value '{other}' for {name}.{key}"
                        )))
                    }
                };
                call.params.insert(key.to_ascii_lowercase(), value);
                if !self.accept_token(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(call)
    }

    // ----------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Expr> {
        let lhs = self.parse_unary()?;
        self.parse_binary_continuation(lhs, 0)
    }

    /// Postfix predicates binding at comparison level: `IS [NOT] NULL`,
    /// `[NOT] IN (…)`, `[NOT] BETWEEN a AND b`, `[NOT] LIKE pattern`.
    /// Returns the (possibly wrapped) expression and whether anything was
    /// consumed.
    fn try_postfix(&mut self, lhs: Expr) -> Result<(Expr, bool)> {
        if self.peek_kw("IS") {
            self.pos += 1;
            let not = self.accept_kw("NOT");
            self.expect_kw("NULL")?;
            let e = if not {
                Expr::IsNotNull(Box::new(lhs))
            } else {
                Expr::IsNull(Box::new(lhs))
            };
            return Ok((e, true));
        }
        // NOT only participates here when followed by IN/BETWEEN/LIKE
        // (otherwise it is the prefix operator parsed elsewhere).
        let negated = if self.peek_kw("NOT") {
            let next_is_postfix = matches!(
                self.tokens.get(self.pos + 1),
                Some(Token::Ident(w)) if ["IN", "BETWEEN", "LIKE"]
                    .iter()
                    .any(|k| w.eq_ignore_ascii_case(k))
            );
            if !next_is_postfix {
                return Ok((lhs, false));
            }
            self.pos += 1;
            true
        } else {
            false
        };
        if self.accept_kw("IN") {
            self.expect_token(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.accept_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok((
                Expr::InList {
                    expr: Box::new(lhs),
                    list,
                    negated,
                },
                true,
            ));
        }
        if self.accept_kw("BETWEEN") {
            // Bounds parse above AND precedence so the BETWEEN's own AND
            // isn't swallowed.
            let lo = {
                let u = self.parse_unary()?;
                self.parse_binary_continuation(u, 4)?
            };
            self.expect_kw("AND")?;
            let hi = {
                let u = self.parse_unary()?;
                self.parse_binary_continuation(u, 4)?
            };
            // Desugar: x BETWEEN a AND b ⇔ x >= a AND x <= b.
            let body = Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Ge, lhs.clone(), lo),
                Expr::binary(BinOp::Le, lhs, hi),
            );
            let e = if negated {
                Expr::Not(Box::new(body))
            } else {
                body
            };
            return Ok((e, true));
        }
        if self.accept_kw("LIKE") {
            let pattern = self.parse_unary()?;
            return Ok((
                Expr::Like {
                    expr: Box::new(lhs),
                    pattern: Box::new(pattern),
                    negated,
                },
                true,
            ));
        }
        if negated {
            return Err(DbError::Parse("dangling NOT".into()));
        }
        Ok((lhs, false))
    }

    /// Precedence climbing from an already-parsed left-hand side.
    fn parse_binary_continuation(&mut self, mut lhs: Expr, min_prec: u8) -> Result<Expr> {
        loop {
            // Postfix predicates (IS NULL / IN / BETWEEN / LIKE) bind at
            // comparison level — tighter than AND/OR.
            if min_prec <= 3 {
                let (e, consumed) = self.try_postfix(lhs)?;
                lhs = e;
                if consumed {
                    continue;
                }
            }
            let Some((op, prec)) = self.peek_binop() else {
                return Ok(lhs);
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            self.pos += 1;
            let mut rhs = self.parse_unary()?;
            loop {
                let (e, consumed) = self.try_postfix(rhs)?;
                rhs = e;
                if consumed {
                    continue;
                }
                let Some((_, next_prec)) = self.peek_binop() else {
                    break;
                };
                if next_prec <= prec {
                    break;
                }
                rhs = self.parse_binary_continuation(rhs, prec + 1)?;
            }
            lhs = Expr::binary(op, lhs, rhs);
        }
    }

    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        let tok = self.peek()?;
        Some(match tok {
            Token::Ident(s) if s.eq_ignore_ascii_case("OR") => (BinOp::Or, 1),
            Token::Ident(s) if s.eq_ignore_ascii_case("AND") => (BinOp::And, 2),
            Token::Eq => (BinOp::Eq, 3),
            Token::NotEq => (BinOp::Ne, 3),
            Token::Lt => (BinOp::Lt, 3),
            Token::LtEq => (BinOp::Le, 3),
            Token::Gt => (BinOp::Gt, 3),
            Token::GtEq => (BinOp::Ge, 3),
            Token::Plus => (BinOp::Add, 4),
            Token::Minus => (BinOp::Sub, 4),
            Token::Star => (BinOp::Mul, 5),
            Token::Slash => (BinOp::Div, 5),
            Token::Percent => (BinOp::Mod, 5),
            _ => return None,
        })
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.accept_token(&Token::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        if self.accept_kw("NOT") {
            // SQL's NOT binds looser than comparisons and the postfix
            // predicates, tighter than AND: `NOT a = 1 AND b` is
            // `(NOT (a = 1)) AND b`.
            let operand = self.parse_unary()?;
            return Ok(Expr::Not(Box::new(
                self.parse_binary_continuation(operand, 3)?,
            )));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.next()? {
            Token::Int(v) => Ok(Expr::lit(v)),
            Token::Float(v) => Ok(Expr::lit(v)),
            Token::Str(s) => Ok(Expr::lit(s.as_str())),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::lit(true));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::lit(false));
                }
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if is_reserved(&name) {
                    return Err(DbError::Parse(format!(
                        "unexpected keyword '{name}' in expression"
                    )));
                }
                if self.accept_token(&Token::LParen) {
                    let call = self.parse_call_body(&name)?;
                    if !call.params.is_empty() || call.star || call.distinct {
                        return Err(DbError::Parse(format!(
                            "'{name}(…)' used as a scalar expression cannot take * or parameters"
                        )));
                    }
                    return Ok(Expr::Func {
                        name,
                        args: call.args,
                    });
                }
                if self.accept_token(&Token::Dot) {
                    // `alias.column` — keep the qualifier in the column name;
                    // the join planner resolves it to a side.
                    let col = self.ident()?;
                    return Ok(Expr::Column(format!("{name}.{col}")));
                }
                Ok(Expr::Column(name))
            }
            other => Err(DbError::Parse(format!("unexpected token '{other}'"))),
        }
    }
}

#[derive(Default)]
struct Call {
    args: Vec<Expr>,
    params: BTreeMap<String, String>,
    star: bool,
    distinct: bool,
}

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|k| k.eq_ignore_ascii_case(word))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = select("SELECT a, b FROM t WHERE a > 1");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.as_deref(), Some("t"));
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn wildcard_and_alias() {
        let s = select("SELECT *, a + 1 AS next, b twice FROM t");
        assert_eq!(s.items[0], SelectItem::Wildcard);
        match &s.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("next")),
            other => panic!("{other:?}"),
        }
        match &s.items[2] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("twice")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let s = select("SELECT count(*), sum(x), avg(x) AS mean FROM t GROUP BY g");
        assert!(matches!(
            s.items[0],
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: None,
                ..
            }
        ));
        assert!(matches!(
            &s.items[2],
            SelectItem::Aggregate {
                func: AggFunc::Avg,
                alias: Some(a),
                ..
            } if a == "mean"
        ));
        assert_eq!(s.group_by.len(), 1);
        assert!(parse("SELECT sum(*) FROM t").is_err());
        assert!(parse("SELECT count(a, b) FROM t").is_err());
    }

    #[test]
    fn order_limit_offset() {
        let s = select("SELECT * FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 30");
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(30));
    }

    #[test]
    fn transform_invocation_matches_figure_4() {
        // The paper's Figure 4 query shape.
        let s = select(
            "SELECT ExportToDistributedR(a, b USING PARAMETERS workers='h1:9090,h2:9091', \
             psize=100000, policy='locality') OVER (PARTITION BEST) FROM mytable",
        );
        match &s.items[0] {
            SelectItem::Transform {
                name,
                args,
                params,
                partition,
            } => {
                assert_eq!(name, "ExportToDistributedR");
                assert_eq!(args.len(), 2);
                assert_eq!(params.get("workers").unwrap(), "h1:9090,h2:9091");
                assert_eq!(params.get("psize").unwrap(), "100000");
                assert_eq!(params.get("policy").unwrap(), "locality");
                assert_eq!(*partition, Partition::Best);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transform_partition_by() {
        let s = select(
            "SELECT glmPredict(a, b USING PARAMETERS model='m') OVER (PARTITION BY a) FROM t",
        );
        match &s.items[0] {
            SelectItem::Transform { partition, .. } => {
                assert_eq!(*partition, Partition::By("a".into()))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scalar_function_in_expression() {
        let s = select("SELECT sqrt(x) + 1 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "(sqrt(x) + 1)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let s = select("SELECT a + b * c - d FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "((a + (b * c)) - d)");
            }
            other => panic!("{other:?}"),
        }
        let s = select("SELECT * FROM t WHERE a > 1 AND b < 2 OR c = 3");
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "(((a > 1) AND (b < 2)) OR (c = 3))"
        );
    }

    /// Prefix NOT binds looser than comparisons, `IS`, `IN`, `LIKE` and
    /// `BETWEEN`, and tighter than AND/OR.
    #[test]
    fn not_binds_looser_than_comparisons_and_tighter_than_and() {
        let where_of = |cond: &str| select(&format!("SELECT * FROM t WHERE {cond}")).where_clause;
        for (bare, explicit) in [
            ("NOT grp = 1", "NOT (grp = 1)"),
            ("NOT tag = 'b'", "NOT (tag = 'b')"),
            ("NOT grp IS NULL", "NOT (grp IS NULL)"),
            ("NOT grp IN (1, 2)", "NOT (grp IN (1, 2))"),
            ("NOT grp > 1 AND tag = 'a'", "(NOT (grp > 1)) AND tag = 'a'"),
            ("NOT tag LIKE 'a%'", "NOT (tag LIKE 'a%')"),
            ("NOT grp BETWEEN 1 AND 2", "NOT (grp BETWEEN 1 AND 2)"),
            ("a = 1 OR NOT b + 1 < 2", "a = 1 OR (NOT ((b + 1) < 2))"),
            ("NOT NOT grp = 1", "NOT (NOT (grp = 1))"),
        ] {
            assert_eq!(where_of(bare), where_of(explicit), "{bare}");
        }
    }

    #[test]
    fn is_null_postfix() {
        let s = select("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "((a) IS NULL AND (b) IS NOT NULL)"
        );
    }

    #[test]
    fn create_table_variants() {
        let stmt = parse(
            "CREATE TABLE samples (id INTEGER, x FLOAT, name VARCHAR(64), ok BOOLEAN) \
             SEGMENTED BY HASH(id)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                segmentation,
            } => {
                assert_eq!(name, "samples");
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[1], ("x".to_string(), DataType::Float64));
                assert_eq!(segmentation, Some(SegSpec::Hash("id".into())));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("CREATE TABLE t (a INT) SEGMENTED ROUND ROBIN").unwrap(),
            Statement::CreateTable {
                segmentation: Some(SegSpec::RoundRobin),
                ..
            }
        ));
        assert!(parse("CREATE TABLE t (a BLOB)").is_err());
    }

    #[test]
    fn insert_and_drop() {
        let stmt = parse("INSERT INTO t VALUES (1, 'a'), (2, NULL)").unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Expr::Literal(Value::Null));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
        assert!(matches!(
            parse("DROP TABLE t;").unwrap(),
            Statement::DropTable {
                if_exists: false,
                ..
            }
        ));
    }

    #[test]
    fn negative_numbers_and_unary() {
        let s = select("SELECT -a, -1.5, NOT (a > 0) FROM t");
        assert_eq!(s.items.len(), 3);
    }

    #[test]
    fn errors_are_informative() {
        let e = parse("SELECT FROM").unwrap_err();
        assert!(matches!(e, DbError::Parse(_)));
        let e = parse("SELECT a FROM t WHERE").unwrap_err();
        assert!(e.to_string().contains("end of input"));
        let e = parse("SELECT a FROM t nonsense extra").unwrap_err();
        assert!(e.to_string().contains("trailing") || e.to_string().contains("unexpected"));
        assert!(parse("").is_err());
    }

    #[test]
    fn in_between_like_postfix_predicates() {
        let s = select("SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4)");
        let w = s.where_clause.unwrap().to_string();
        assert!(w.contains("(a) IN (1, 2, 3)"), "{w}");
        assert!(w.contains("(b) NOT IN (4)"), "{w}");

        let s = select("SELECT * FROM t WHERE a BETWEEN 1 AND 3 AND b = 2");
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "(((a >= 1) AND (a <= 3)) AND (b = 2))"
        );
        let s = select("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 3");
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "NOT (((a >= 1) AND (a <= 3)))"
        );

        let s = select("SELECT * FROM t WHERE name LIKE 'ab%' OR name NOT LIKE '%z'");
        let w = s.where_clause.unwrap().to_string();
        assert!(w.contains("(name) LIKE 'ab%'"), "{w}");
        assert!(w.contains("(name) NOT LIKE '%z'"), "{w}");
    }

    #[test]
    fn count_distinct_parses_and_is_count_only() {
        let s = select("SELECT count(DISTINCT tag) FROM t");
        assert!(matches!(
            &s.items[0],
            SelectItem::Aggregate {
                func: AggFunc::Count,
                distinct: true,
                ..
            }
        ));
        assert!(parse("SELECT sum(DISTINCT x) FROM t").is_err());
        assert!(parse("SELECT count(DISTINCT *) FROM t").is_err());
        assert!(parse("SELECT sqrt(DISTINCT x) FROM t").is_err());
    }

    #[test]
    fn using_parameters_without_over_is_rejected() {
        assert!(parse("SELECT f(a USING PARAMETERS k='v') FROM t").is_err());
    }

    #[test]
    fn schema_qualified_from_parses_as_dotted_name() {
        let s = select("SELECT name, value FROM v_monitor.metrics WHERE value > 0");
        assert_eq!(s.from.as_deref(), Some("v_monitor.metrics"));
        // Unqualified names are untouched.
        assert_eq!(select("SELECT * FROM t").from.as_deref(), Some("t"));
    }

    #[test]
    fn profile_wraps_any_statement() {
        let stmt = parse("PROFILE SELECT count(*) FROM t WHERE x > 1").unwrap();
        let Statement::Profile(inner) = stmt else {
            panic!("expected Profile, got {stmt:?}");
        };
        assert!(matches!(*inner, Statement::Select(_)));
        let stmt = parse("PROFILE INSERT INTO t VALUES (1)").unwrap();
        assert!(matches!(stmt, Statement::Profile(_)));
        // Bare PROFILE with nothing to profile is a parse error.
        assert!(parse("PROFILE").is_err());
    }

    #[test]
    fn explain_wraps_a_select_only() {
        let stmt = parse("EXPLAIN SELECT count(*) FROM t WHERE x > 1").unwrap();
        let Statement::Explain(inner) = stmt else {
            panic!("expected Explain, got {stmt:?}");
        };
        assert_eq!(inner.from.as_deref(), Some("t"));
        for sql in [
            "EXPLAIN",
            "EXPLAIN INSERT INTO t VALUES (1)",
            "EXPLAIN PROFILE SELECT 1",
        ] {
            assert!(matches!(parse(sql), Err(DbError::Parse(_))), "{sql}");
        }
    }

    #[test]
    fn trace_wraps_any_statement() {
        let stmt = parse("TRACE SELECT count(*) FROM t WHERE x > 1").unwrap();
        let Statement::Trace(inner) = stmt else {
            panic!("expected Trace, got {stmt:?}");
        };
        assert!(matches!(*inner, Statement::Select(_)));
        // TRACE PROFILE parses (the executor rejects the nesting later,
        // like any inner PROFILE).
        let stmt = parse("TRACE PROFILE SELECT 1").unwrap();
        assert!(matches!(stmt, Statement::Trace(_)));
        // Bare TRACE with nothing to trace is a parse error.
        assert!(parse("TRACE").is_err());
    }
}
