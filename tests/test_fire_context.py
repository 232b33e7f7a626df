"""An updater's context holds every bound slot its source range does
not fix.

A source pattern like ``p|<time>|<poster>`` read with ``poster`` bound
but ``time`` free has the containing range ``[p|, p})``: the bound
``poster`` sits after the first unbound segment, so the range does not
enforce it, and the updater installed over that range must carry it in
its context for a fire to check.  Without it, a post by anybody lands
in the timeline of everybody whose range is live.

The shape family below is every two-source join over ``s`` and ``p``
that differs in where that can happen: check or echeck, both slot
orders of ``s`` and of ``p``, copy or count, and every slot order of
the output.  Each shape takes one seeded stream of writes with prefix
and whole-table reads in between (which make ranges live, so later
writes reach them through updater fires), and must end equal to a
server that took the same writes and read only at the end.
"""

import itertools
import random

import pytest

from repro import PequodServer

USERS = ("ann", "bob", "carol")
TIMES = ("0001", "0002", "0003", "0004")


def test_bound_slot_after_an_unbound_one_is_checked():
    srv = PequodServer()
    srv.add_join(
        "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<time>|<poster>"
    )
    srv.put("s|ann|bob", "1")
    srv.put("p|0001|bob", "hi")
    assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "hi")]
    srv.put("p|0002|carol", "not followed")
    assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "hi")]


def _shapes():
    for check, s_slots, p_slots in itertools.product(
        ("check", "echeck"),
        (("user", "poster"), ("poster", "user")),
        (("poster", "time"), ("time", "poster")),
    ):
        s = "s|" + "|".join(f"<{n}>" for n in s_slots)
        p = "p|" + "|".join(f"<{n}>" for n in p_slots)
        for op, out_slots in (
            ("copy", ("user", "time", "poster")),
            ("count", ("user", "poster")),
        ):
            for order in itertools.permutations(out_slots):
                out = "t|" + "|".join(f"<{n}>" for n in order)
                yield f"{out} = {check} {s} {op} {p}"


SHAPES = tuple(_shapes())


def _key(pattern: str, slots: dict) -> str:
    table, *names = pattern.split("|")
    return "|".join([table] + [slots[name.strip("<>")] for name in names])


def _run(srv: PequodServer, steps) -> None:
    for step in steps:
        if step[0] == "read":
            srv.scan(step[1], step[2])
        elif step[1] is None:
            srv.remove(step[0])
        else:
            srv.put(step[0], step[1])


def _steps(shape: str, seed: int):
    output, body = shape.split(" = ")
    _, s_pat, _, p_pat = body.split()
    lead = output.split("|")[1].strip("<>")
    domain = {"user": USERS, "poster": USERS, "time": TIMES}
    rng = random.Random(seed)
    steps = []
    for _ in range(25):
        roll = rng.random()
        slots = {name: rng.choice(values) for name, values in domain.items()}
        if roll < 0.25:
            value = "1" if rng.random() < 0.8 else None
            steps.append((_key(s_pat, slots), value))
        elif roll < 0.75:
            value = None if rng.random() < 0.2 else f"v{rng.randrange(10)}"
            steps.append((_key(p_pat, slots), value))
        elif roll < 0.95:
            prefix = f"t|{rng.choice(domain[lead])}|"
            steps.append(("read", prefix, prefix[:-1] + "}"))
        else:
            steps.append(("read", "t|", "t}"))
    return steps


@pytest.mark.parametrize("shape", SHAPES)
def test_maintained_shape_equals_a_from_scratch_server(shape):
    for seed in range(4):
        steps = _steps(shape, seed)
        live, scratch = PequodServer(), PequodServer()
        for srv in (live, scratch):
            srv.add_join(shape)
        _run(live, steps)
        _run(scratch, [step for step in steps if step[0] != "read"])
        assert live.scan("t|", "t}") == scratch.scan("t|", "t}"), seed
