import inspect

import escortdyn


def test_all_lists_exactly_the_public_names():
    # a dangling entry fails to resolve; a forgotten export shows up as an extra public name
    for name in escortdyn.__all__:
        assert hasattr(escortdyn, name), name
    public = {
        name
        for name, value in vars(escortdyn).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(escortdyn.__all__) == sorted(public)
    assert len(set(escortdyn.__all__)) == len(escortdyn.__all__)
