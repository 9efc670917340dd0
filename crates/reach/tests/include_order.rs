//! The build engine, the object cache's include fingerprint and the
//! reachability analyzer resolve `#include` targets through one candidate
//! order, so they agree on which file a `../` include names.

use jmake_kbuild::{include_fingerprint, BuildEngine, ConfigKind, SourceTree};
use jmake_reach::{Reach, ReachClass};

fn tree() -> SourceTree {
    let mut t = SourceTree::new();
    t.insert("Kconfig", "config NET\n\tbool \"net\"\n");
    t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
    t.insert("Makefile", "obj-y += drivers/\n");
    t.insert("drivers/Makefile", "obj-y += net/\n");
    t.insert("drivers/net/Makefile", "obj-y += a.o\n");
    t.insert(
        "drivers/net/a.c",
        "#include \"../common.h\"\nint a(void)\n{\nreturn COMMON;\n}\n",
    );
    t.insert("drivers/common.h", "#define COMMON 1\nint common_decl;\n");
    t
}

#[test]
fn engine_fingerprint_and_reach_agree_on_a_parent_directory_include() {
    let t = tree();
    let mut engine = BuildEngine::new(t.clone());
    let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();

    // The engine opens the header the directive names.
    let results = engine
        .make_i(&cfg, &t, &["drivers/net/a.c".to_string()])
        .unwrap();
    let ifile = results[0].1.as_ref().expect("a.c preprocesses");
    assert!(
        ifile.includes.iter().any(|p| p == "drivers/common.h"),
        "engine includes: {:?}",
        ifile.includes
    );
    assert!(engine.make_o(&cfg, &t, "drivers/net/a.c").is_ok());

    // The object-cache key covers that header: editing it must move the
    // include-closure fingerprint.
    let before = include_fingerprint(&t, "x86_64", "drivers/net/a.c").unwrap();
    let mut edited = t.clone();
    edited.insert("drivers/common.h", "#define COMMON 2\nint common_decl;\n");
    let after = include_fingerprint(&edited, "x86_64", "drivers/net/a.c").unwrap();
    assert_ne!(before, after, "the fingerprint missed the included header");

    // Reach follows the same edge: the header's lines are seen by the
    // allyes build of a.c.
    let mut reach = Reach::new(&t);
    reach.add_arch(&mut engine, "x86_64").unwrap();
    let classes = reach.analyze_files(&["drivers/common.h".to_string()]);
    assert_eq!(
        classes.files["drivers/common.h"].class(2),
        Some(&ReachClass::AllyesReachable)
    );
}
