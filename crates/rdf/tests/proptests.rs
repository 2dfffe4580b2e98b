//! Property-based tests for the RDF substrate.

use alex_rdf::{ntriples, Date, Interner, Literal, Store, Term, Triple};
use proptest::prelude::*;

fn arb_iri() -> impl Strategy<Value = String> {
    "[a-z]{1,8}".prop_map(|s| format!("http://example.org/{s}"))
}

fn arb_literal_value() -> impl Strategy<Value = String> {
    // Include characters that must be escaped.
    proptest::string::string_regex("[ -~éλ\\t\\n\"\\\\]{0,24}").unwrap()
}

prop_compose! {
    fn arb_date()(year in 1i32..=2500, month in 1u8..=12, day in 1u8..=28) -> Date {
        Date::new(year, month, day).expect("day <= 28 is always valid")
    }
}

#[derive(Clone, Debug)]
enum ObjSpec {
    Iri(String),
    Str(String),
    Lang(String, String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Date(Date),
}

fn arb_obj() -> impl Strategy<Value = ObjSpec> {
    prop_oneof![
        arb_iri().prop_map(ObjSpec::Iri),
        arb_literal_value().prop_map(ObjSpec::Str),
        (arb_literal_value(), "[a-z]{2}").prop_map(|(v, l)| ObjSpec::Lang(v, l)),
        any::<i64>().prop_map(ObjSpec::Int),
        (-1.0e12f64..1.0e12).prop_map(ObjSpec::Float),
        any::<bool>().prop_map(ObjSpec::Bool),
        arb_date().prop_map(ObjSpec::Date),
    ]
}

fn build_store(specs: &[(String, String, ObjSpec)]) -> Store {
    let interner = Interner::new_shared();
    let mut store = Store::new(interner.clone());
    for (s, p, o) in specs {
        let s = store.intern_iri(s);
        let p = store.intern_iri(p);
        let term: Term = match o {
            ObjSpec::Iri(i) => Term::Iri(store.intern_iri(i)),
            ObjSpec::Str(v) => Literal::str(&interner, v).into(),
            ObjSpec::Lang(v, l) => Literal::LangStr {
                value: interner.intern(v),
                lang: interner.intern(l),
            }
            .into(),
            ObjSpec::Int(i) => Literal::Integer(*i).into(),
            ObjSpec::Float(f) => Literal::float(*f).into(),
            ObjSpec::Bool(b) => Literal::Boolean(*b).into(),
            ObjSpec::Date(d) => Literal::Date(*d).into(),
        };
        store.insert(Triple::new(s, p, term));
    }
    store
}

proptest! {
    /// Serialize → parse returns exactly the same triple set.
    #[test]
    fn ntriples_round_trip(specs in proptest::collection::vec((arb_iri(), arb_iri(), arb_obj()), 0..40)) {
        let s1 = build_store(&specs);
        let text = ntriples::write_string(&s1);
        let mut s2 = Store::new(s1.interner().clone());
        ntriples::read_str(&text, &mut s2).expect("own output must re-parse");
        prop_assert_eq!(s1.len(), s2.len());
        for t in s1.iter() {
            prop_assert!(s2.contains(t));
        }
    }

    /// Every pattern query returns exactly the triples a brute-force scan finds.
    #[test]
    fn pattern_matches_brute_force(
        specs in proptest::collection::vec((arb_iri(), arb_iri(), arb_obj()), 1..30),
        s_bound: bool, p_bound: bool, o_bound: bool, pick in 0usize..30
    ) {
        let store = build_store(&specs);
        let probe = *store.iter().nth(pick % store.len()).unwrap();
        let s = s_bound.then_some(probe.subject);
        let p = p_bound.then_some(probe.predicate);
        let o = o_bound.then_some(probe.object);
        let got: Vec<Triple> = store.match_pattern(s, p, o).copied().collect();
        let want: Vec<Triple> = store
            .iter()
            .filter(|t| {
                s.is_none_or(|s| s == t.subject)
                    && p.is_none_or(|p| p == t.predicate)
                    && o.is_none_or(|o| o == t.object)
            })
            .copied()
            .collect();
        let got_set: std::collections::HashSet<_> = got.iter().copied().collect();
        let want_set: std::collections::HashSet<_> = want.iter().copied().collect();
        prop_assert_eq!(got_set, want_set);
        prop_assert!(!got.is_empty(), "probe triple itself must match");
    }

    /// Date day numbers are strictly monotone in chronological order.
    #[test]
    fn date_day_number_monotone(a in arb_date(), b in arb_date()) {
        if a < b {
            prop_assert!(a.day_number() < b.day_number());
        } else if a == b {
            prop_assert_eq!(a.day_number(), b.day_number());
        } else {
            prop_assert!(a.day_number() > b.day_number());
        }
    }

    /// Date lexical forms round-trip.
    #[test]
    fn date_parse_round_trip(d in arb_date()) {
        prop_assert_eq!(Date::parse(&d.to_string()).unwrap(), d);
    }

    /// The Turtle parser accepts everything the N-Triples serializer
    /// emits (N-Triples is a syntactic subset of Turtle).
    #[test]
    fn turtle_parses_ntriples_output(specs in proptest::collection::vec((arb_iri(), arb_iri(), arb_obj()), 0..30)) {
        let s1 = build_store(&specs);
        let text = alex_rdf::ntriples::write_string(&s1);
        let mut s2 = Store::new(s1.interner().clone());
        alex_rdf::turtle::read_str(&text, &mut s2).expect("turtle must accept N-Triples");
        prop_assert_eq!(s1.len(), s2.len());
        for t in s1.iter() {
            prop_assert!(s2.contains(t));
        }
    }

    /// Interner ids are stable and dense under arbitrary workloads.
    #[test]
    fn interner_ids_dense(keys in proptest::collection::vec("[a-z]{1,6}", 1..60)) {
        let interner = Interner::new();
        let mut first = std::collections::HashMap::new();
        for k in &keys {
            let id = interner.intern(k);
            let prev = first.entry(k.clone()).or_insert(id);
            prop_assert_eq!(*prev, id);
            prop_assert_eq!(&*interner.resolve(id), k.as_str());
        }
        prop_assert_eq!(interner.len(), first.len());
    }
}

/// Turtle keywords matched case-insensitively at a byte offset.
const TURTLE_KEYWORDS: &[&str] = &["@prefix", "PREFIX", "@base", "BASE", "true", "false", "a"];

/// Turtle syntax fragments, several carrying multi-byte characters.
const TURTLE_TOKENS: &[&str] = &[
    "<http://e/é>",
    "ex:é",
    "é:x",
    "ex:",
    "_:é",
    "[",
    "]",
    ";",
    ",",
    ".",
    "\"é\"",
    "\"x\"@é",
    "^^",
    "42",
    "1e3",
    "-1.5",
    "#é\n",
];

/// Two-, three- and four-byte UTF-8 characters, plus a combining mark.
const WIDE: &[char] = &['é', 'ß', 'λ', '中', '€', '🦀', '\u{301}'];

fn arb_turtle_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..TURTLE_KEYWORDS.len()).prop_map(|i| TURTLE_KEYWORDS[i].to_owned()),
        (0..TURTLE_KEYWORDS.len(), 0usize..8, 0..WIDE.len()).prop_map(|(i, cut, w)| {
            let kw = TURTLE_KEYWORDS[i];
            format!("{}{}", &kw[..cut.min(kw.len())], WIDE[w])
        }),
        (0..TURTLE_TOKENS.len()).prop_map(|i| TURTLE_TOKENS[i].to_owned()),
        (0..WIDE.len()).prop_map(|w| WIDE[w].to_string()),
    ]
}

#[test]
fn turtle_keyword_cut_by_multibyte_text_is_an_error() {
    for text in [
        "@prefié",
        "PREFIé",
        "BAé",
        "<http://e/s> <http://e/p> trué .",
    ] {
        let mut store = Store::new(Interner::new_shared());
        assert!(
            alex_rdf::turtle::read_str(text, &mut store).is_err(),
            "{text:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Keyword fragments mixed with multi-byte characters never make the
    /// Turtle parser panic.
    #[test]
    fn turtle_never_panics_on_mixed_fragments(
        parts in proptest::collection::vec((arb_turtle_fragment(), 0usize..3), 0..24)
    ) {
        let text: String = parts
            .into_iter()
            .map(|(frag, sep)| frag + ["", " ", "\n"][sep])
            .collect();
        let mut store = Store::new(Interner::new_shared());
        let _ = alex_rdf::turtle::read_str(&text, &mut store);
    }
}

/// Statement parts, valid entries first: `.0` of each pool is how many
/// of its leading entries are valid. The rest are malformed (cut IRIs,
/// bad escapes, out-of-range typed values, multi-byte language tags).
const NT_SUBJECTS: (usize, &[&str]) = (2, &["<http://e/s>", "_:b0", "<http://e/", "\"x\"", "_:é"]);
const NT_PREDICATES: (usize, &[&str]) = (2, &["<http://e/p>", "<http://e/é>", "_:b0", "<>"]);
const NT_OBJECTS: (usize, &[&str]) = (
    5,
    &[
        "<http://e/o>",
        "\"x\"",
        "\"é\"@en",
        "\"\\u00e9\\U0001F980\"",
        "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>",
        "\"x\"@é",
        "\"\\uD800\"",
        "\"\\U0011FFFF\"",
        "\"\\u12\"",
        "\"\\q\"",
        "\"é",
        "\"-9999999999999999999999\"^^<http://www.w3.org/2001/XMLSchema#integer>",
        "\"1e999\"^^<http://www.w3.org/2001/XMLSchema#double>",
        "\"2015-13-45\"^^<http://www.w3.org/2001/XMLSchema#date>",
        "\"x\"^^",
    ],
);
const NT_ENDS: (usize, &[&str]) = (2, &[" .", " . # é", ".", "", " . .", "\t."]);

/// Picks from a pool: a valid entry unless `hostile`.
fn nt_part(pool: (usize, &[&'static str]), hostile: bool, pick: usize) -> &'static str {
    let n = if hostile { pool.1.len() } else { pool.0 };
    pool.1[pick % n]
}

/// N-Triples documents of statements, one in four drawn from the
/// malformed parts too, and optionally one character replaced by a
/// multi-byte one: the parser gets past its first statements and meets
/// hostile input deep in the document.
fn arb_ntriples_doc() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(
            (
                0usize..4,
                (
                    any::<usize>(),
                    any::<usize>(),
                    any::<usize>(),
                    any::<usize>(),
                ),
            ),
            0..8,
        ),
        (any::<bool>(), 0usize..4, any::<usize>(), 0..WIDE.len()),
    )
        .prop_map(|(lines, (crlf, damage, at, w))| {
            let lines: Vec<String> = lines
                .iter()
                .map(|&(hostile, (s, p, o, e))| {
                    let part = |pool, pick| nt_part(pool, hostile == 0, pick);
                    format!(
                        "{} {} {}{}",
                        part(NT_SUBJECTS, s),
                        part(NT_PREDICATES, p),
                        part(NT_OBJECTS, o),
                        part(NT_ENDS, e)
                    )
                })
                .collect();
            let mut text = lines.join(if crlf { "\r\n" } else { "\n" });
            if damage == 0 && !text.is_empty() {
                let (i, c) = text.char_indices().nth(at % text.chars().count()).unwrap();
                text.replace_range(i..i + c.len_utf8(), &WIDE[w].to_string());
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes (decoded lossily, as text arrives) never make the
    /// N-Triples parser panic.
    #[test]
    fn ntriples_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let mut store = Store::new(Interner::new_shared());
        let _ = ntriples::read_str(&text, &mut store);
    }

    /// Documents of hostile statements never make the parser panic.
    #[test]
    fn ntriples_never_panics_on_hostile_statements(text in arb_ntriples_doc()) {
        let mut store = Store::new(Interner::new_shared());
        let _ = ntriples::read_str(&text, &mut store);
    }
}
