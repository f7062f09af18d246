from mutants.run import EQUIVALENT, MUTANTS, ROOT


def test_every_mutant_changes_one_place_of_the_current_source():
    """The list stays applicable as the source changes; mutants/run.py runs the suite over each."""
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)
    for name, file, old, new in MUTANTS:
        assert old != new and (ROOT / file).read_text().count(old) == 1, name


def test_every_equivalent_mutant_is_listed_with_a_reason():
    assert set(EQUIVALENT) <= {name for name, *_ in MUTANTS}
    assert all(reason.strip() for reason in EQUIVALENT.values())
