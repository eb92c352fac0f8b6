//! AP-identifier interning.
//!
//! The global AP map names APs by small dense `u32` ids handed out by
//! the [`Interner`] here, keyed by [`grid_key`].

use crowdwifi_geo::Point;
use std::collections::BTreeMap;

/// First-come-first-serve string intern table handing out dense,
/// stable `u32` ids.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `name`, returning its stable id. Idempotent: the same
    /// name always yields the same id; new names get sequential ids.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Looks up `name` without interning it.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name behind `id`, if it was handed out by [`Interner::intern`].
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// The canonical grid-quantized AP key for a position: `ap(ix,iy)`
/// with `ix = floor(x / resolution)` (same for `iy`). The map founds
/// new entries under these keys, so APs founded in the same cell share
/// one id.
///
/// # Panics
///
/// Panics if `resolution` is not a positive finite number.
pub fn grid_key(p: Point, resolution: f64) -> String {
    assert!(
        resolution > 0.0 && resolution.is_finite(),
        "grid resolution must be positive and finite"
    );
    let ix = (p.x / resolution).floor() as i64;
    let iy = (p.y / resolution).floor() as i64;
    format!("ap({ix},{iy})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_sequential() {
        let mut t = Interner::new();
        assert_eq!(t.intern("a"), 0);
        assert_eq!(t.intern("b"), 1);
        assert_eq!(t.intern("a"), 0);
        assert_eq!(t.name(1), Some("b"));
        assert_eq!(t.get("b"), Some(1));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn grid_key_floors_to_the_resolution_cell() {
        assert_eq!(grid_key(Point::new(75.0, 25.0), 10.0), "ap(7,2)");
        assert_eq!(grid_key(Point::new(-0.1, 0.0), 10.0), "ap(-1,0)");
    }
}
