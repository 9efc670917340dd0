use jmake_kbuild::SourceTree;
use jmake_kconfig::KconfigModel;
use jmake_reach::{Reach, ReachEnv};

fn model(src: &str) -> KconfigModel {
    let mut m = KconfigModel::new();
    m.parse_str("Kconfig", src).unwrap();
    m
}

fn reach_over(tree: &SourceTree, m: KconfigModel) -> jmake_reach::TreeReach {
    let mut r = Reach::new(tree);
    let allyes = m.allyesconfig();
    let allmod = m.allmodconfig();
    r.add_model("x86_64", m);
    r.add_env(ReachEnv {
        label: "ay".into(),
        arch: "x86_64".into(),
        config: allyes,
        allyes: true,
    });
    r.add_env(ReachEnv {
        label: "am".into(),
        arch: "x86_64".into(),
        config: allmod,
        allyes: false,
    });
    r.analyze()
}

#[test]
fn obj_n_file_included_under_negated_config_is_not_dead() {
    let mut t = SourceTree::new();
    t.insert("Makefile", "obj-y += kernel/\n");
    t.insert("kernel/Makefile", "obj-y += main.o\nobj-n += stale.o\n");
    t.insert(
        "kernel/main.c",
        "int always;\n#ifndef CONFIG_NET\n#include \"stale.c\"\n#endif\n",
    );
    t.insert("kernel/stale.c", "int stale_code;\n");
    let m = model("config NET\n\tbool \"net\"\n");
    let tr = reach_over(&t, m);
    let stale = &tr.files["kernel/stale.c"];
    println!("stale.c line 1 class: {:?}", stale.class(1));
    assert!(
        !stale.class(1).unwrap().is_dead(),
        "false Dead: {:?}",
        stale.class(1)
    );
}

#[test]
fn gated_c_file_included_elsewhere_negated_guard_not_dead() {
    let mut t = SourceTree::new();
    t.insert("Makefile", "obj-y += lib/\n");
    t.insert(
        "lib/Makefile",
        "obj-y += bar.o\nobj-$(CONFIG_FOO) += foo.o\n",
    );
    t.insert("lib/bar.c", "#include \"foo.c\"\nint bar;\n");
    t.insert(
        "lib/foo.c",
        "int foo;\n#if !defined(CONFIG_FOO) && !defined(CONFIG_FOO_MODULE)\nint fallback;\n#endif\n",
    );
    let m = model("config FOO\n\tbool \"foo\"\n");
    let tr = reach_over(&t, m);
    let foo = &tr.files["lib/foo.c"];
    println!("foo.c line 3 class: {:?}", foo.class(3));
    assert!(
        !foo.class(3).unwrap().is_dead(),
        "false Dead: {:?}",
        foo.class(3)
    );
}
