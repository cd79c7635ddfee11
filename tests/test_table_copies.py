"""The builders that copy whole tables under new ids — the trivial
displayed monoidal category, the total monoidal category and the product
category — against pinned digests of their tables, the memory they hold
while building beyond what they return, and how and in which order they
name missing entries."""

import gc
import hashlib
import tracemalloc

import pytest

from bindcat import (
    TableError,
    chain_category,
    check_monoidal_laws,
    endofunctor_monoidal,
    product_category,
    total_monoidal,
    trivial_displayed_monoidal,
)
from bindcat.monoidal import classical_from_whiskered, whiskered_from_classical
from test_displayed_total import z2_over_terminal
from test_pointed import idempotent_arrow, pointed_endofunctors

BASES = {"chain2": lambda: chain_category(2), "chain3": lambda: chain_category(3),
         "idempotent": idempotent_arrow}
DISP_TABLES = ("disp_tensor", "disp_lwhisker", "disp_rwhisker", "disp_lunitor",
               "disp_lunitor_inv", "disp_runitor", "disp_runitor_inv", "disp_associator",
               "disp_associator_inv")
ISO_TABLES = ("lunitor", "lunitor_inv", "runitor", "runitor_inv", "associator",
              "associator_inv")


def digest(table) -> str:
    """SHA-256 of the UTF-8 encoding of ``repr`` of the table in order: of
    its list of (key, value) items for a dict, of the tuple itself for a
    category's objects and morphisms."""
    items = list(table.items()) if isinstance(table, dict) else table
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def category_tables(C) -> dict:
    return {"objects": C.objects, "morphisms": C.morphisms, "identity": C.identity,
            "comp": C.comp}


def displayed_tables(DM) -> dict:
    D = DM.disp_cat
    tables = {t: getattr(D, t) for t in ("fiber_obj", "disp_hom", "disp_id", "disp_comp")}
    return tables | {t: getattr(DM, t) for t in DISP_TABLES}


def monoidal_tables(M) -> dict:
    tensor = {t: getattr(M.tensor, t) for t in ("obj_table", "lwhisker", "rwhisker")}
    return category_tables(M.base) | tensor | {t: getattr(M, t) for t in ISO_TABLES}


PINS = {
    "trivial:chain2": {
        "fiber_obj": "70f851bdbe889ba63cf00ba66920d0e7cd6940fd00fcb950d05e843a847ab881",
        "disp_hom": "d34097a45588a500b0bb51cde428ccb0129efa58d167f820da09f5f776c6d7e4",
        "disp_id": "99d51b34fc30e2b40be0bcc3304558309d29e89edc58aea878432d276512c7be",
        "disp_comp": "3e596a3bbf34f29a31c833b2fc9840cdd631c1c156c9ddde8a8a6ed7f45f2b74",
        "disp_tensor": "e59e7d4d64bdd7f6191294c051d3ea506aeb3a9b840d376e7211d9c459afe195",
        "disp_lwhisker": "6e23a6cdf02b37fb86dc879fa671243c25988786b4012cbedce0e641841d35be",
        "disp_rwhisker": "c5edbc2b95f6ed6937c015fd3894a184e73112bfceaf92b90f3a6d4cd820c549",
        "disp_lunitor": "99d51b34fc30e2b40be0bcc3304558309d29e89edc58aea878432d276512c7be",
        "disp_lunitor_inv": "99d51b34fc30e2b40be0bcc3304558309d29e89edc58aea878432d276512c7be",
        "disp_runitor": "99d51b34fc30e2b40be0bcc3304558309d29e89edc58aea878432d276512c7be",
        "disp_runitor_inv": "99d51b34fc30e2b40be0bcc3304558309d29e89edc58aea878432d276512c7be",
        "disp_associator": "934ec758fe913e197cb1df36f4ec438895007acf599c1a710155ec7cf000d187",
        "disp_associator_inv": "934ec758fe913e197cb1df36f4ec438895007acf599c1a710155ec7cf000d187",
    },
    "total:chain2": {
        "objects": "cd26f76cdc7a08b0d21b9b107c59fa0966c02258b043836ff53d4d2dd80a342d",
        "morphisms": "0be71ba73353be0a5e7ff27ee8357fa3c5fc9e648a6e794ae061461d884e6205",
        "identity": "047880c23c7407f28b8bfbd8fbfe77226c889c9c7a120240433f693a1a34686a",
        "comp": "45baa3d894e4a74719c633beb51668b31ede6004fbfd809bbfa3ebe56640ff72",
        "obj_table": "ec4cfb1ba485ea1e5e44c2182dcaf5a6f27b6ae292c1b294206e8f00d38ea576",
        "lwhisker": "b7a86ad35c65f5303fd9abcc0daf9a0b2e1b055412674278ff1af9239e09f348",
        "rwhisker": "ed8d48df8320d59142c12784be32e71f19c457bffbc1a0dfa0d938c250d8e00e",
        "lunitor": "047880c23c7407f28b8bfbd8fbfe77226c889c9c7a120240433f693a1a34686a",
        "lunitor_inv": "047880c23c7407f28b8bfbd8fbfe77226c889c9c7a120240433f693a1a34686a",
        "runitor": "047880c23c7407f28b8bfbd8fbfe77226c889c9c7a120240433f693a1a34686a",
        "runitor_inv": "047880c23c7407f28b8bfbd8fbfe77226c889c9c7a120240433f693a1a34686a",
        "associator": "e96b7fa5ffe9369e60a221ad75f5df6b0552d01082516f40fb1cb798722f7ea9",
        "associator_inv": "e96b7fa5ffe9369e60a221ad75f5df6b0552d01082516f40fb1cb798722f7ea9",
    },
    "trivial:chain3": {
        "fiber_obj": "69e66024848403d2d69720439beb2bdf60196495b24a90624f8dbfd956a630bd",
        "disp_hom": "f562c66236b80c7831b508b13ad6bfb9f44093e8fa81373d09fda2b3a0e0d75a",
        "disp_id": "aca1123a2b991e77611ac29b1bc5857e119fdbdbb9819795453c8d99299d2b11",
        "disp_comp": "f6a34492ace9dadc4efb0c152b9a834e0669f3286967747b3b480d6fa4b82cc6",
        "disp_tensor": "ae26bd2c5856d194bae90bb94f55e1e948e463124c432ef108ce19c28e2f8844",
        "disp_lwhisker": "d6d93b5c6ab823b2aa26c78886a7b5328d40040b248866fae6dca2e1117ab00a",
        "disp_rwhisker": "1bc9410c81815161bfef76cd4a134fd88fd94e9715c07e61e41dbfe55ed0f502",
        "disp_lunitor": "aca1123a2b991e77611ac29b1bc5857e119fdbdbb9819795453c8d99299d2b11",
        "disp_lunitor_inv": "aca1123a2b991e77611ac29b1bc5857e119fdbdbb9819795453c8d99299d2b11",
        "disp_runitor": "aca1123a2b991e77611ac29b1bc5857e119fdbdbb9819795453c8d99299d2b11",
        "disp_runitor_inv": "aca1123a2b991e77611ac29b1bc5857e119fdbdbb9819795453c8d99299d2b11",
        "disp_associator": "82b00fc799431da4e83012a92a986985a0d0ace66a05e006f5d238ed94aa2a1c",
        "disp_associator_inv": "82b00fc799431da4e83012a92a986985a0d0ace66a05e006f5d238ed94aa2a1c",
    },
    "total:chain3": {
        "objects": "a4bb723ec747047ba91ff3ecb7c5047deea67329f5e37a70ce33aa13e3773474",
        "morphisms": "5efc9f1ac18a8c4fbddd9e926eebeabe1b78c2e0d946ebae78a48d36f10ccab9",
        "identity": "0e5bb6a3f8fcbef53ab16a92d338617b50c1759e9d2695e8219f7d0ed967a0cb",
        "comp": "02c724151db079432826dd508697a6d638991482596b5e9fb4d41b6bf0cb4749",
        "obj_table": "a5dfc3978507e68e69da2eae52d0357c3273a305b4c04c5680a2e3806c0fdf93",
        "lwhisker": "3c5f1f2b1b2962fe51da4aa353c17aad691a00733d3d63deb144481f17a79c5e",
        "rwhisker": "41cbe054a88ee85c7a5297f3a59f9573445d99266eef84317e0004f3e11cac26",
        "lunitor": "0e5bb6a3f8fcbef53ab16a92d338617b50c1759e9d2695e8219f7d0ed967a0cb",
        "lunitor_inv": "0e5bb6a3f8fcbef53ab16a92d338617b50c1759e9d2695e8219f7d0ed967a0cb",
        "runitor": "0e5bb6a3f8fcbef53ab16a92d338617b50c1759e9d2695e8219f7d0ed967a0cb",
        "runitor_inv": "0e5bb6a3f8fcbef53ab16a92d338617b50c1759e9d2695e8219f7d0ed967a0cb",
        "associator": "a9e736d6df6705b9760d99b8a3e6b925010ca2c345c396610859b6bb996ab6c9",
        "associator_inv": "a9e736d6df6705b9760d99b8a3e6b925010ca2c345c396610859b6bb996ab6c9",
    },
    "product:chain3": {
        "objects": "3077f2b3d86134f936461ef9fe16607bcae3223c25089618b537a421f6241fe2",
        "morphisms": "d973e5739e843574d2bedbb31ef8c9a5e5c67e6091deaf9aaedc95cfa44b7610",
        "identity": "0588097f2a6d002938f5aa17f51e3a7bbf8e31b843dd67f8d0f39bd736caf0bb",
        "comp": "89c02125450c2c48673858473cf67ef2417c8d131f0e2da15ae269cd2efa658d",
    },
    "trivial:idempotent": {
        "fiber_obj": "c98f020e42139e38b1039cfb704411f0caa4639a80aa49c13da4d100367d3409",
        "disp_hom": "778cdfbf56494d241361c194a033c766195afdb9e8e95afc5a6f5b2cd927c95c",
        "disp_id": "66d86e2e3daba7f5f52d421abd5152f031f4918d34c2158a68e416e1e2e38b1e",
        "disp_comp": "c9714b9d4bf5a249aa40660e1daefcc6a3527dedcad5d179e59c19bdd6109d75",
        "disp_tensor": "d11fbbe55e3662b4d627195ac3e7b4aeb87594ea09c3f74ec394018be52556cd",
        "disp_lwhisker": "dbc625227f3a16b95297270cfac9a2e342c18be0ecadc3cccc79493dd9e026ad",
        "disp_rwhisker": "0ddb66fdf33d958f1979e56a0192d290a52a847b422383187b5155732657f8f5",
        "disp_lunitor": "66d86e2e3daba7f5f52d421abd5152f031f4918d34c2158a68e416e1e2e38b1e",
        "disp_lunitor_inv": "66d86e2e3daba7f5f52d421abd5152f031f4918d34c2158a68e416e1e2e38b1e",
        "disp_runitor": "66d86e2e3daba7f5f52d421abd5152f031f4918d34c2158a68e416e1e2e38b1e",
        "disp_runitor_inv": "66d86e2e3daba7f5f52d421abd5152f031f4918d34c2158a68e416e1e2e38b1e",
        "disp_associator": "b3ae5e86918b637cf46444027e78a86070032a1e18e4bdbb25d72ee54624a6dc",
        "disp_associator_inv": "b3ae5e86918b637cf46444027e78a86070032a1e18e4bdbb25d72ee54624a6dc",
    },
    "total:idempotent": {
        "objects": "28d1fcb24452395dbad90e1b0db2f6b091d3d6287c3385213cd294943c44189c",
        "morphisms": "a26c39d878498a3bf552a85645d8d7f6b8fbfd54cfd4e410f6c09fa5afaf3d7d",
        "identity": "4b5bf64edd02bba1ef66418929faaecea57b259f0e62e9c2799fddc157605ee4",
        "comp": "e7b80fc9671fcf89804eb79ebe292d843f37bbea63d615f8965ce9da1e94f954",
        "obj_table": "0ea8170e36df74a3cd0973a99ab352665315eebde88837272e41e5ee4626abf1",
        "lwhisker": "2e839c71435db827ba1505531aeacfd6d98010dfeadf321f3921ebeda2f2061e",
        "rwhisker": "8fe8ad8c0b5e500bafa3ccbb5f2e8b44a25f534dcbc35418b037fba5b83abaf4",
        "lunitor": "4b5bf64edd02bba1ef66418929faaecea57b259f0e62e9c2799fddc157605ee4",
        "lunitor_inv": "4b5bf64edd02bba1ef66418929faaecea57b259f0e62e9c2799fddc157605ee4",
        "runitor": "4b5bf64edd02bba1ef66418929faaecea57b259f0e62e9c2799fddc157605ee4",
        "runitor_inv": "4b5bf64edd02bba1ef66418929faaecea57b259f0e62e9c2799fddc157605ee4",
        "associator": "78392ac76931f4694173e97913550a1ff679aca4b49773f56f481acf33664938",
        "associator_inv": "78392ac76931f4694173e97913550a1ff679aca4b49773f56f481acf33664938",
    },
    "total-ptd:idempotent": {
        "objects": "150f0b7bab0d72d544a242213107ad9536f5414a6de792a4b4a58665c96609be",
        "morphisms": "3accde65ca31919afab7f36dde86416c14e12c74e505981143a240c38e6b66c7",
        "identity": "fdaf2f99f4579b627c2eb56ebb573a4984d208337d972c04396975c70a2bca47",
        "comp": "91ed7510d07753ff303827b4d80a5adb1ab81186eb6623189f47ac31fa0e01cf",
        "obj_table": "07b3d35ad8921e3738b449f2e642ce6a081adf97657b5f80c2afb8fbac218245",
        "lwhisker": "6c6bf9a9f971bd605c46ecacc739c0f3c5f6e8b9ea6600314984dc44d3510d3b",
        "rwhisker": "b853cb95e60ca483be09f4fdd1ac15ca2c7a120e9a04ddae139aff0ae06e98bf",
        "lunitor": "fdaf2f99f4579b627c2eb56ebb573a4984d208337d972c04396975c70a2bca47",
        "lunitor_inv": "fdaf2f99f4579b627c2eb56ebb573a4984d208337d972c04396975c70a2bca47",
        "runitor": "fdaf2f99f4579b627c2eb56ebb573a4984d208337d972c04396975c70a2bca47",
        "runitor_inv": "fdaf2f99f4579b627c2eb56ebb573a4984d208337d972c04396975c70a2bca47",
        "associator": "a255e01ec14d468caa56cadc68f23592d7dd106f5b9bff3386fb3ae23dd1c969",
        "associator_inv": "a255e01ec14d468caa56cadc68f23592d7dd106f5b9bff3386fb3ae23dd1c969",
    },
}


@pytest.fixture(scope="module", params=list(BASES))
def built(request):
    """The builders' tables on End(base), by pin name."""
    M = endofunctor_monoidal(BASES[request.param]()).monoidal
    DM = trivial_displayed_monoidal(M)
    tables = {f"trivial:{request.param}": displayed_tables(DM),
              f"total:{request.param}": monoidal_tables(total_monoidal(DM))}
    if request.param == "chain3":
        tables["product:chain3"] = category_tables(product_category(M.base, M.base))
    if request.param == "idempotent":
        tables["total-ptd:idempotent"] = monoidal_tables(total_monoidal(pointed_endofunctors(M)))
    return tables


def test_every_table_keeps_its_bytes(built):
    for call, tables in built.items():
        assert {t: digest(v) for t, v in tables.items()} == PINS[call], call


def test_product_ids_are_rendered_once():
    B = endofunctor_monoidal(chain_category(2)).monoidal.base
    P = product_category(B, B)
    ids = [*P.objects, *(i for m in P.morphisms for i in m),
           *(i for pair in P.identity.items() for i in pair),
           *(i for (g, f), h in P.comp.items() for i in (g, f, h))]
    seen = {}
    assert all(seen.setdefault(i, i) is i for i in ids)


# --- memory --------------------------------------------------------------------------
# Each builder makes every new id and key once, as it stores the entry, and sizes
# an inverse table from its forward table.  On End(chain 4), under tracemalloc,
# trivial_displayed_monoidal peaks 0.02 MB above what it holds afterwards and
# total_monoidal 0.04 MB; with a list of all key triples beside the tables and
# inverse tables grown entry by entry, they peaked 0.96 and 2.02 MB above.  The
# classical round trip on End(chain 3) peaks at 3.98 MB, 10.56 MB when
# product_category rendered every pair id anew at each use.

@pytest.fixture(scope="module")
def chain4():
    return endofunctor_monoidal(chain_category(4)).monoidal


def traced(build):
    """What ``build()`` holds when it returns, and its traced peak, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return held, peak


def test_trivial_displayed_monoidal_holds_no_second_copy(chain4):
    held, peak = traced(lambda: trivial_displayed_monoidal(chain4))
    assert peak - held < 250_000


def test_total_monoidal_holds_no_second_copy(chain4):
    DM = trivial_displayed_monoidal(chain4)
    held, peak = traced(lambda: total_monoidal(DM))
    assert peak - held < 250_000


def test_the_classical_round_trip_peaks_low():
    T = endofunctor_monoidal(chain_category(3)).monoidal.tensor
    _, peak = traced(lambda: whiskered_from_classical(classical_from_whiskered(T)))
    assert peak < 6_000_000


# --- errors --------------------------------------------------------------------------

def test_a_missing_associator_is_named_before_a_missing_inverse():
    # both associator tables are walked whole, the associator first
    M = endofunctor_monoidal(chain_category(2)).monoidal
    first, *_, last = M.associator
    del M.associator_inv[first], M.associator[last]
    with pytest.raises(TableError) as caught:
        trivial_displayed_monoidal(M)
    assert str(caught.value) == f"associator has no entry for {last!r}"


@pytest.mark.parametrize("table, key", [
    ("lunitor", "const_0"), ("lunitor_inv", "const_0"), ("runitor_inv", "const_1"),
    ("associator", ("const_0",) * 3), ("associator_inv", ("Id", "const_1", "Id"))],
    ids=lambda v: v if isinstance(v, str) else ",".join(v))
def test_trivial_displayed_monoidal_names_a_missing_entry_as_the_checker_does(table, key):
    M = endofunctor_monoidal(chain_category(2)).monoidal
    del getattr(M, table)[key]
    with pytest.raises(TableError) as checker:
        check_monoidal_laws(M)
    with pytest.raises(TableError) as builder:
        trivial_displayed_monoidal(M)
    assert str(builder.value) == str(checker.value) == f"{table} has no entry for {key!r}"


def test_product_category_names_a_missing_identity():
    C = chain_category(2)
    C.identity = {"0": "id_0"}
    with pytest.raises(TableError, match="^no identity morphism recorded for object '1'$"):
        product_category(C, C)
    T = endofunctor_monoidal(chain_category(2)).monoidal.tensor
    del T.base.identity["const_1"]
    with pytest.raises(TableError, match="^no identity morphism recorded for object 'const_1'$"):
        classical_from_whiskered(T)


def test_total_monoidal_names_a_missing_associator_before_its_inverse():
    DM = z2_over_terminal()
    DM.disp_associator_inv.clear()
    del DM.disp_associator[("p", "p", "p")]
    with pytest.raises(TableError, match=r"disp_associator has no entry"):
        total_monoidal(DM)
    DM = z2_over_terminal()
    del DM.disp_associator_inv[("p", "p", "p")]
    with pytest.raises(TableError, match=r"disp_associator_inv has no entry for "
                                         r"\('p', 'p', 'p'\)"):
        total_monoidal(DM)
