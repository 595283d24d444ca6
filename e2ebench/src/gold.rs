//! Gold comparison, written apart from the extractor: both the
//! program's extracted instances and `webgen`'s golden objects are
//! reduced to one canonical text per object, and a page to the FNV
//! digest of its objects in order.

use crate::measure::fnv64;
use objectrunner_sod::Instance;
use objectrunner_webgen::GoldObject;

/// Whitespace-collapsed value: extraction may re-flow whitespace
/// around a text node, nothing else.
pub fn squash(v: &str) -> String {
    v.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Identity-key normalization as the object store documents it:
/// words trimmed of edge punctuation, empties dropped, lowercased.
pub fn key_value(v: &str) -> String {
    v.split_whitespace()
        .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()))
        .filter(|w| !w.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

fn canonical(mut pairs: Vec<(String, String)>) -> String {
    pairs.sort();
    pairs
        .iter()
        .map(|(a, v)| format!("{a}={v}"))
        .collect::<Vec<_>>()
        .join("\u{1f}")
}

/// Canonical text of an extracted object: its `(type, value)` atoms,
/// values squashed, sorted.
pub fn instance_canon(inst: &Instance) -> String {
    canonical(
        inst.flatten()
            .into_iter()
            .map(|(t, v)| (t.to_owned(), squash(v)))
            .collect(),
    )
}

/// Canonical text of a golden object, in the same form.
pub fn gold_canon(obj: &GoldObject) -> String {
    canonical(
        obj.attrs
            .iter()
            .flat_map(|(a, vs)| vs.iter().map(move |v| (a.clone(), squash(v))))
            .collect(),
    )
}

/// Digest of one page's objects, in page order.
pub fn page_digest<I: IntoIterator<Item = String>>(objects: I) -> u64 {
    let mut joined = String::new();
    for o in objects {
        joined.push_str(&o);
        joined.push('\u{1e}');
    }
    fnv64(joined.as_bytes())
}

/// Digest of a page's golden objects.
pub fn gold_digest(objects: &[GoldObject]) -> u64 {
    page_digest(objects.iter().map(gold_canon))
}

/// Digest of a page's extracted instances.
pub fn extracted_digest(objects: &[Instance]) -> u64 {
    page_digest(objects.iter().map(instance_canon))
}

/// The identity key the object store should give a golden object:
/// `attr=value` over the key attributes, normalized, sorted, joined by
/// `|`. `None` when a key attribute is absent (the store skips those).
pub fn gold_key(obj: &GoldObject, key_attrs: &[&str]) -> Option<String> {
    let mut pairs = Vec::new();
    for &attr in key_attrs {
        let values = obj.values(attr);
        if values.is_empty() {
            return None;
        }
        pairs.extend(values.iter().map(|v| format!("{attr}={}", key_value(v))));
    }
    pairs.sort();
    Some(pairs.join("|"))
}

/// Does a key hold `attr` with a normalized value starting with
/// `prefix` (already normalized)?
pub fn key_has_prefix(key: &str, attr: &str, prefix: &str) -> bool {
    key.split('|').any(|pair| {
        pair.split_once('=')
            .is_some_and(|(a, v)| a == attr && v.starts_with(prefix))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold(pairs: &[(&str, &[&str])]) -> GoldObject {
        let mut g = GoldObject::default();
        for (a, vs) in pairs {
            for v in *vs {
                g.push(a, v);
            }
        }
        g
    }

    #[test]
    fn squash_collapses_whitespace_only() {
        assert_eq!(squash("  The\n  Wall \t"), "The Wall");
        assert_eq!(squash("$12.99"), "$12.99");
    }

    #[test]
    fn key_value_trims_edge_punctuation_and_lowercases() {
        assert_eq!(key_value("  Metallica!  "), "metallica");
        assert_eq!(key_value("AC/DC -- Live"), "ac/dc live");
        assert_eq!(key_value("$12.99"), "12.99");
    }

    #[test]
    fn canon_is_order_free_within_an_object() {
        let a = gold(&[("title", &["X"]), ("author", &["B", "A"])]);
        let b = gold(&[("author", &["A", "B"]), ("title", &["X"])]);
        assert_eq!(gold_canon(&a), gold_canon(&b));
        let inst = Instance::Tuple {
            name: "book".into(),
            fields: vec![
                Instance::atomic("title", " X "),
                Instance::Set(vec![
                    Instance::atomic("author", "B"),
                    Instance::atomic("author", "A"),
                ]),
            ],
        };
        assert_eq!(instance_canon(&inst), gold_canon(&a));
    }

    #[test]
    fn page_digest_depends_on_object_order_and_values() {
        let x = gold(&[("title", &["X"])]);
        let y = gold(&[("title", &["Y"])]);
        let xy = gold_digest(&[x.clone(), y.clone()]);
        assert_ne!(xy, gold_digest(&[y.clone(), x.clone()]));
        assert_ne!(xy, gold_digest(std::slice::from_ref(&x)));
        assert_eq!(xy, gold_digest(&[x, y]));
        assert_ne!(gold_digest(&[]), gold_digest(&[gold(&[("title", &[""])])]));
    }

    #[test]
    fn gold_key_matches_store_key_shape() {
        let g = gold(&[("title", &["The  Wall!"]), ("price", &["$9.99"])]);
        assert_eq!(
            gold_key(&g, &["title", "price"]).as_deref(),
            Some("price=9.99|title=the wall")
        );
        assert_eq!(gold_key(&g, &["title", "isbn"]), None);
        let key = gold_key(&g, &["title", "price"]).unwrap();
        assert!(key_has_prefix(&key, "title", "the w"));
        assert!(!key_has_prefix(&key, "title", "wall"));
        assert!(!key_has_prefix(&key, "price", "the"));
    }
}
