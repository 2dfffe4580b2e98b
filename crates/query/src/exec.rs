//! Solution rows and the expression semantics the federated engine
//! evaluates them with: the variable table that maps names to row slots,
//! literal resolution against the shared interner, `FILTER` evaluation,
//! and the term comparisons behind `FILTER` and `ORDER BY`.

use std::cmp::Ordering;
use std::collections::HashMap;

use alex_rdf::{Date, Interner, Literal, Term};

use crate::ast::{CompareOp, FilterExpr, FilterOperand, LiteralSpec, Query, Variable};

/// A solution row: one term per query variable (by index), `None` until
/// bound.
pub type Row = Vec<Option<Term>>;

/// Maps variable names to row indices for one query.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    names: Vec<Variable>,
    index: HashMap<Variable, usize>,
}

impl VarTable {
    /// Builds the table from a query's variables.
    pub fn from_query(query: &Query) -> Self {
        let names = query.all_variables();
        let index = names
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();
        Self { names, index }
    }

    /// Index of `var`, if the query mentions it.
    pub fn index_of(&self, var: &Variable) -> Option<usize> {
        self.index.get(var).copied()
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the query has no variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Variable names in index order.
    pub fn names(&self) -> &[Variable] {
        &self.names
    }
}

/// Resolves a literal spec against an interner (interning string payloads).
pub fn resolve_literal(spec: &LiteralSpec, interner: &Interner) -> Option<Literal> {
    Some(match spec {
        LiteralSpec::Str(s) => Literal::Str(interner.intern(s)),
        LiteralSpec::LangStr(s, lang) => Literal::LangStr {
            value: interner.intern(s),
            lang: interner.intern(lang),
        },
        LiteralSpec::Integer(i) => Literal::Integer(*i),
        LiteralSpec::Float(f) => Literal::float(*f),
        LiteralSpec::Boolean(b) => Literal::Boolean(*b),
        LiteralSpec::Date(s) => Literal::Date(Date::parse(s).ok()?),
    })
}

/// Evaluates a filter over a (possibly partially bound) row; unbound
/// variables make the filter fail, matching SPARQL's error-is-false rule.
pub fn eval_filter(f: &FilterExpr, row: &Row, vars: &VarTable, interner: &Interner) -> bool {
    match f {
        FilterExpr::Compare { left, op, right } => {
            let l = operand_term(left, row, vars, interner);
            let r = operand_term(right, row, vars, interner);
            let (Some(l), Some(r)) = (l, r) else {
                return false;
            };
            match op {
                CompareOp::Eq => term_eq(&l, &r, interner),
                CompareOp::Ne => !term_eq(&l, &r, interner),
                other => match compare_terms(&l, &r, interner) {
                    Some(ord) => match other {
                        CompareOp::Lt => ord == Ordering::Less,
                        CompareOp::Le => ord != Ordering::Greater,
                        CompareOp::Gt => ord == Ordering::Greater,
                        CompareOp::Ge => ord != Ordering::Less,
                        CompareOp::Eq | CompareOp::Ne => unreachable!(),
                    },
                    None => false,
                },
            }
        }
        FilterExpr::Contains { var, needle } => string_value(var, row, vars, interner)
            .is_some_and(|s| s.to_lowercase().contains(&needle.to_lowercase())),
        FilterExpr::StrStarts { var, prefix } => string_value(var, row, vars, interner)
            .is_some_and(|s| s.to_lowercase().starts_with(&prefix.to_lowercase())),
        FilterExpr::And(a, b) => {
            eval_filter(a, row, vars, interner) && eval_filter(b, row, vars, interner)
        }
        FilterExpr::Or(a, b) => {
            eval_filter(a, row, vars, interner) || eval_filter(b, row, vars, interner)
        }
        FilterExpr::Not(a) => !eval_filter(a, row, vars, interner),
    }
}

fn operand_term(
    op: &FilterOperand,
    row: &Row,
    vars: &VarTable,
    interner: &Interner,
) -> Option<Term> {
    match op {
        FilterOperand::Var(v) => vars.index_of(v).and_then(|i| row[i]),
        FilterOperand::Literal(spec) => resolve_literal(spec, interner).map(Term::Literal),
    }
}

fn string_value(var: &Variable, row: &Row, vars: &VarTable, interner: &Interner) -> Option<String> {
    let term = vars.index_of(var).and_then(|i| row[i])?;
    Some(match term {
        Term::Iri(id) => interner.resolve(id.0).to_string(),
        Term::Literal(l) => l.lexical(interner).to_string(),
    })
}

fn numeric_value(t: &Term) -> Option<f64> {
    match t {
        Term::Literal(Literal::Integer(i)) => Some(*i as f64),
        Term::Literal(Literal::Float(f)) => Some(f.get()),
        _ => None,
    }
}

/// Term equality with numeric coercion (`3 = 3.0` holds, as in SPARQL).
pub fn term_eq(a: &Term, b: &Term, _interner: &Interner) -> bool {
    if let (Some(x), Some(y)) = (numeric_value(a), numeric_value(b)) {
        return x == y;
    }
    a == b
}

/// A *total* order over optional terms, for `ORDER BY`: unbound < IRIs <
/// literals; within literals, numbers < dates < booleans < strings; ties
/// break by value (numeric, chronological, or lexical).
pub fn total_term_cmp(a: &Option<Term>, b: &Option<Term>, interner: &Interner) -> Ordering {
    fn rank(t: &Term) -> u8 {
        match t {
            Term::Iri(_) => 1,
            Term::Literal(Literal::Integer(_)) | Term::Literal(Literal::Float(_)) => 2,
            Term::Literal(Literal::Date(_)) => 3,
            Term::Literal(Literal::Boolean(_)) => 4,
            Term::Literal(_) => 5,
        }
    }
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            let (rx, ry) = (rank(x), rank(y));
            if rx != ry {
                return rx.cmp(&ry);
            }
            match (x, y) {
                (Term::Iri(i), Term::Iri(j)) => interner.resolve(i.0).cmp(&interner.resolve(j.0)),
                _ => {
                    if let (Some(nx), Some(ny)) = (numeric_value(x), numeric_value(y)) {
                        return nx.total_cmp(&ny);
                    }
                    compare_terms(x, y, interner).unwrap_or_else(|| {
                        // Same rank but incomparable (e.g. bool vs bool is
                        // comparable via Eq only): fall back to Eq/byte order.
                        if x == y {
                            Ordering::Equal
                        } else {
                            format!("{x:?}").cmp(&format!("{y:?}"))
                        }
                    })
                }
            }
        }
    }
}

/// Ordering between comparable terms: numbers numerically, dates
/// chronologically, strings lexically. Cross-type comparison is undefined.
pub fn compare_terms(a: &Term, b: &Term, interner: &Interner) -> Option<Ordering> {
    if let (Some(x), Some(y)) = (numeric_value(a), numeric_value(b)) {
        return x.partial_cmp(&y);
    }
    match (a, b) {
        (Term::Literal(Literal::Date(x)), Term::Literal(Literal::Date(y))) => Some(x.cmp(y)),
        (Term::Literal(x), Term::Literal(y)) => {
            let (Some(sx), Some(sy)) = (x.as_str_id(), y.as_str_id()) else {
                return None;
            };
            Some(interner.resolve(sx).cmp(&interner.resolve(sy)))
        }
        _ => None,
    }
}
