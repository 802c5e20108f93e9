from globflow.unionfind import DisjointSets


class TestDisjointSets:
    def test_unknown_ids(self):
        sets = DisjointSets(["a", "b"])
        sets.union("a", "b")
        # `same` answers for unknown ids without registering them
        assert sets.same("x", "x")
        assert not sets.same("x", "y")
        assert not sets.same("a", "x")
        assert len(sets) == 2
        assert sets.blocks() == [("a", "b")]
        # `find` registers an unknown id as its own class
        assert sets.find("x") == "x"
        assert len(sets) == 3
        assert sets.blocks() == [("a", "b"), ("x",)]
        assert not sets.same("a", "x")

    def test_union_registers_each_item_once(self):
        sets = DisjointSets()
        added = []
        original = sets.add
        sets.add = lambda item: (added.append(item), original(item))
        assert sets.union("p", "q")
        assert not sets.union("q", "p")
        sets.find("p")
        assert added == ["p", "q"]
        assert sets.blocks() == [("p", "q")]
