import pytest

from planact.annotate import (
    analyze_caption,
    build_vqa_pairs,
    synthetic_candidates,
    synthetic_plan,
)
from planact.plans import parse_plan
from planact.prompts import assemble_prompt
from planact.seeding import rng_for


class TestAnalyzeCaption:
    def test_third_person_with_object(self):
        parsed = analyze_caption("C opens a drawer")
        assert parsed.subject == "C"
        assert parsed.verb == "open"
        assert parsed.obj == "drawer"

    def test_progressive_with_particle(self):
        parsed = analyze_caption("a man is picking up a cup")
        assert parsed.subject == "the man"
        assert parsed.verb == "pick up"
        assert parsed.progressive == "picking up"
        assert parsed.obj == "cup"

    def test_trailing_prepositional_phrase_trimmed(self):
        parsed = analyze_caption("C picks up a cup on the table")
        assert parsed.obj == "cup"

    def test_no_verb(self):
        assert analyze_caption("silence") is None


class TestSyntheticPlans:
    def test_worked_drawer_example(self):
        caption = "C opens a drawer"
        text = synthetic_plan(caption, analyze_caption(caption), rng_for("t", 0))
        doc = parse_plan(text)
        assert any(s.verb == "open" and s.args == ["drawer"] for s in doc.actions)

    def test_all_candidates_parse(self):
        for caption in ["C opens a drawer", "C washes a plate", "C turns left"]:
            for cand in synthetic_candidates(caption, 5, "seed-a"):
                parse_plan(cand)

    def test_candidate_count(self):
        assert len(synthetic_candidates("C opens a drawer", 5, "k")) == 5

    def test_deterministic_per_seed_key(self):
        a = synthetic_candidates("C opens a drawer", 5, "k1")
        b = synthetic_candidates("C opens a drawer", 5, "k1")
        c = synthetic_candidates("C opens a drawer", 5, "k2")
        assert a == b
        assert a != c

    def test_unparseable_caption_yields_nothing(self):
        assert synthetic_candidates("silence", 5, "k") == []


class TestVqaPairs:
    def test_worked_example_pair_present(self):
        pairs = build_vqa_pairs("a man is picking up a cup")
        assert {
            "question": "What is the object the man is picking up",
            "answer": "The cup",
        } in pairs

    def test_operation_question(self):
        pairs = build_vqa_pairs("a man is picking up a cup")
        assert {
            "question": "What operation is performed on the cup?",
            "answer": "Picking up",
        } in pairs

    def test_no_structure_empty(self):
        assert build_vqa_pairs("silence") == []

    def test_every_pair_has_answer(self):
        for caption in ["C opens a drawer", "C washes a plate in the sink"]:
            for pair in build_vqa_pairs(caption):
                assert pair["question"] and pair["answer"]

    def test_at_most_five(self):
        assert len(build_vqa_pairs("C opens a drawer")) <= 5


class TestPrompts:
    def test_annotation_prompt_contains_schema_lines(self):
        prompt = assemble_prompt("egocot_annotation", "pick up a cup on the table")
        for line in [
            "[action_name], eg., turn left;",
            "[action_name] argument1, eg., pick up(apple);",
            "[action_name] argument1 argument2, eg., put(apple, table)",
            "1. grasp(handle of the cup, gripper)",
            "2. lift up(cup)",
        ]:
            assert line in prompt
        assert prompt.rstrip().endswith("Task: pick up a cup on the table\nplans:")

    def test_cot_prompt_embeds_caption_as_question(self):
        prompt = assemble_prompt("cot", "open the drawer")
        assert "how to do the task that open the drawer" in prompt

    def test_unknown_kind_rejected(self):
        from planact.errors import ContractError

        with pytest.raises(ContractError):
            assemble_prompt("riddle", "caption")

    def test_empty_caption_rejected(self):
        from planact.errors import ContractError

        with pytest.raises(ContractError):
            assemble_prompt("cot", "  ")
