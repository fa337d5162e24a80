//! Property-based grammar tests: any AST the strategies can generate must
//! survive `to_source` → `parse` unchanged. This pins the pretty-printer
//! and the parser to the same language.

use adpm_dddl::ast::*;
use adpm_dddl::{parse, to_source};
use proptest::prelude::*;

/// Plain identifiers the lexer keeps whole.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}(-[a-z0-9]{1,4}){0,2}"
}

/// Arbitrary names, including ones that need quoting.
fn any_name() -> impl Strategy<Value = String> {
    prop_oneof![
        ident(),
        "[A-Za-z+ ()0-9]{1,12}".prop_filter("non-empty trimmed", |s| {
            !s.trim().is_empty() && *s == s.trim()
        }),
    ]
}

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e6f64..1e6).prop_map(|x| (x * 1e6).round() / 1e6)
}

fn domain_decl() -> impl Strategy<Value = DomainDecl> {
    prop_oneof![
        (finite_f64(), finite_f64()).prop_map(|(a, b)| DomainDecl::Interval(a.min(b), a.max(b))),
        proptest::collection::vec(finite_f64(), 1..5).prop_map(DomainDecl::Set),
        proptest::collection::vec(ident(), 1..4).prop_map(DomainDecl::Choice),
        Just(DomainDecl::Bool),
    ]
}

fn prop_ref(objects: Vec<(String, Vec<String>)>) -> impl Strategy<Value = PropRef> {
    let pairs: Vec<PropRef> = objects
        .iter()
        .flat_map(|(o, props)| {
            props.iter().map(move |p| PropRef {
                object: o.clone(),
                property: p.clone(),
            })
        })
        .collect();
    proptest::sample::select(pairs)
}

fn expr_ast(objects: Vec<(String, Vec<String>)>) -> impl Strategy<Value = ExprAst> {
    let leaf = prop_oneof![
        finite_f64().prop_map(ExprAst::Num),
        prop_ref(objects).prop_map(ExprAst::Ref),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| ExprAst::Neg(Box::new(e))),
            (
                prop_oneof![
                    Just(UnaryFn::Sqrt),
                    Just(UnaryFn::Abs),
                    Just(UnaryFn::Exp),
                    Just(UnaryFn::Ln)
                ],
                inner.clone()
            )
                .prop_map(|(f, e)| ExprAst::Unary(f, Box::new(e))),
            (
                prop_oneof![Just(Binary2Fn::Min), Just(Binary2Fn::Max)],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(f, a, b)| ExprAst::Binary2(f, Box::new(a), Box::new(b))),
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div)
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| ExprAst::Bin(op, Box::new(a), Box::new(b))),
            (inner, 0..5i32).prop_map(|(e, n)| ExprAst::Pow(Box::new(e), n)),
        ]
    })
}

fn scenario_ast() -> impl Strategy<Value = ScenarioAst> {
    // Objects with unique names and unique property names per object.
    let objects = proptest::collection::btree_map(
        any_name(),
        proptest::collection::btree_map(ident(), domain_decl(), 1..4),
        1..3,
    );
    objects.prop_flat_map(|object_map| {
        let objects: Vec<ObjectDecl> = object_map
            .iter()
            .map(|(name, props)| ObjectDecl {
                name: name.clone(),
                properties: props
                    .iter()
                    .map(|(pname, dom)| PropertyDecl {
                        name: pname.clone(),
                        domain: dom.clone(),
                        units: None,
                        levels: Vec::new(),
                        init: None,
                    })
                    .collect(),
            })
            .collect();
        let refs: Vec<(String, Vec<String>)> = objects
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    o.properties.iter().map(|p| p.name.clone()).collect(),
                )
            })
            .collect();
        let constraint = (
            expr_ast(refs.clone()),
            prop_oneof![
                Just(RelOp::Le),
                Just(RelOp::Lt),
                Just(RelOp::Ge),
                Just(RelOp::Gt),
                Just(RelOp::Eq)
            ],
            expr_ast(refs.clone()),
            proptest::collection::vec(
                (any::<bool>(), prop_ref(refs.clone())).prop_map(|(increasing, property)| {
                    MonoDecl {
                        increasing,
                        property,
                    }
                }),
                0..3,
            ),
        );
        let constraints =
            proptest::collection::btree_map(ident(), (constraint, any::<bool>()), 0..4).prop_map(
                |map| -> Vec<ConstraintDecl> {
                    map.into_iter()
                        .map(
                            |(name, ((lhs, rel, rhs, monotonic), soft))| ConstraintDecl {
                                name,
                                soft,
                                lhs,
                                rel,
                                rhs,
                                monotonic,
                            },
                        )
                        .collect()
                },
            );
        (Just(objects), constraints).prop_map(|(objects, constraints)| ScenarioAst {
            objects,
            constraints,
            problems: Vec::new(),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn printed_scenarios_reparse_to_a_fixed_point(ast in scenario_ast()) {
        // One print+parse normalizes (e.g. Neg(Num(x)) folds to Num(-x));
        // after that the representation must be a fixed point.
        let printed = to_source(&ast);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\nsource:\n{printed}"));
        let printed2 = to_source(&reparsed);
        let reparsed2 = parse(&printed2)
            .unwrap_or_else(|e| panic!("second re-parse failed: {e}\nsource:\n{printed2}"));
        prop_assert_eq!(&reparsed, &reparsed2);
        prop_assert_eq!(printed2, to_source(&reparsed2));
    }

    #[test]
    fn printing_is_deterministic(ast in scenario_ast()) {
        prop_assert_eq!(to_source(&ast), to_source(&ast));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Robustness: arbitrary byte soup must produce an `Err`, never a panic
    /// (lexer and parser are total functions over strings).
    #[test]
    fn arbitrary_input_never_panics(garbage in "\\PC{0,120}") {
        let _ = parse(&garbage);
    }

    /// Near-miss DDDL (valid tokens, random order) must also fail cleanly.
    #[test]
    fn shuffled_tokens_never_panic(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "object", "property", "constraint", "problem", "under", "after",
                "interval", "set", "choice", "bool", "units", "levels", "init",
                "monotonic", "increasing", "decreasing", "in", "outputs",
                "inputs", "constraints", "designer", "x", "o", "1.5", "(", ")",
                "{", "}", "[", "]", ":", ";", ",", ".", "+", "-", "*", "/",
                "^", "<=", ">=", "==", "\"s\"",
            ]),
            0..40,
        )
    ) {
        let source = words.join(" ");
        let _ = parse(&source);
    }
}
