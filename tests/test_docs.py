"""Docs-tree checks: every relative markdown link (and anchor) resolves,
the three core pages exist and are linked from the README, and the
harness docstring examples pass under doctest."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro.harness

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

#: Markdown inline links: [text](target)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)


def doc_pages():
    return [REPO / "README.md"] + sorted(DOCS.glob("*.md"))


def iter_links():
    for page in doc_pages():
        for match in LINK_RE.finditer(page.read_text()):
            yield page, match.group(1)


def slugify(heading):
    """GitHub-style anchor slug for a heading."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


CORE_PAGES = ("architecture.md", "sweep-engine.md", "reproducing.md",
              "serving.md")

#: ``repro <subcommand>`` mentions in prose and shell blocks.
SUBCOMMAND_RE = re.compile(r"\brepro ([a-z][a-z0-9-]*)")


class TestDocsTree:
    def test_core_pages_exist(self):
        for name in CORE_PAGES:
            assert (DOCS / name).is_file(), "missing docs/%s" % name

    def test_readme_links_every_core_page(self):
        readme = (REPO / "README.md").read_text()
        for name in CORE_PAGES:
            assert "docs/%s" % name in readme, \
                "README does not link docs/%s" % name

    def test_relative_links_resolve(self):
        checked = 0
        for page, link in iter_links():
            if link.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = link.partition("#")
            resolved = (page.parent / target).resolve() if target else page
            assert resolved.exists(), \
                "%s links to missing %s" % (page.name, link)
            if fragment and resolved.suffix == ".md":
                slugs = {slugify(h)
                         for h in HEADING_RE.findall(resolved.read_text())}
                assert fragment in slugs, \
                    "%s links to missing anchor %s#%s" \
                    % (page.name, target or page.name, fragment)
            checked += 1
        assert checked > 0, "no relative links found — regex broken?"


class TestCLIDrift:
    """The docs and the parser must agree on the CLI surface: every
    ``repro <sub>`` a doc mentions exists, and every subcommand the
    parser registers is documented somewhere."""

    @staticmethod
    def parser_subcommands():
        from repro.cli import build_parser

        parser = build_parser()
        choices = set()
        for action in parser._subparsers._group_actions:
            choices |= set(action.choices)
        return choices

    @staticmethod
    def documented_subcommands():
        mentioned = {}
        for page in doc_pages():
            for match in SUBCOMMAND_RE.finditer(page.read_text()):
                mentioned.setdefault(match.group(1), page.name)
        return mentioned

    def test_every_documented_subcommand_exists(self):
        choices = self.parser_subcommands()
        for sub, page in sorted(self.documented_subcommands().items()):
            assert sub in choices, \
                "%s mentions 'repro %s', which the parser does not " \
                "register (doc drift)" % (page, sub)

    def test_every_subcommand_is_documented(self):
        mentioned = self.documented_subcommands()
        for sub in sorted(self.parser_subcommands()):
            assert sub in mentioned, \
                "subcommand 'repro %s' is documented nowhere under " \
                "docs/ or README.md" % sub

    def test_serve_is_registered_and_documented(self):
        assert "serve" in self.parser_subcommands()
        assert "serve" in self.documented_subcommands()


class TestServingDocs:
    def test_every_registered_endpoint_documented(self):
        from repro.harness.serve import ENDPOINTS

        text = (DOCS / "serving.md").read_text()
        for endpoint in ENDPOINTS:
            assert "`%s`" % endpoint in text, \
                "serving.md does not document endpoint %r" % endpoint

    def test_every_served_figure_documented(self):
        from repro.harness.serve import FIGURES

        text = (DOCS / "serving.md").read_text()
        for name in FIGURES:
            assert "`%s`" % name in text, \
                "serving.md does not mention figure %r" % name

    def test_every_serve_flag_documented(self):
        """No CLI/doc drift on the serve surface: every long option the
        ``repro serve`` subparser registers appears in serving.md (and
        in the parser's own --help, by construction)."""
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        serve = subparsers.choices["serve"]
        flags = [option
                 for action in serve._actions
                 for option in action.option_strings
                 if option.startswith("--") and option != "--help"]
        assert "--miss-workers" in flags and "--max-pending" in flags
        text = (DOCS / "serving.md").read_text()
        for flag in flags:
            assert flag in text, \
                "serving.md does not document 'repro serve %s'" % flag

    def test_scheduler_semantics_documented(self):
        """The queue's operator-facing contract (backpressure, drain,
        dedup, metrics) must live in the serving page's runbook."""
        text = (DOCS / "serving.md").read_text()
        for needle in ("503", "504", "QueueFullError",
                       "DeadlineExceededError", "dedup",
                       "drain", "Prometheus", "perfbench"):
            assert needle in text, \
                "serving.md lost the %r semantics" % needle

    def test_priority_and_deadline_surface_documented(self):
        """The scheduling headers, body fields, and priority names must
        all be spelled out on the serving page."""
        text = (DOCS / "serving.md").read_text()
        for needle in ("X-Repro-Priority", "X-Repro-Deadline-Ms",
                       "X-Repro-Request-Id", "`priority`",
                       "`deadline_ms`", "--request-timeout"):
            assert needle in text, \
                "serving.md does not document %r" % needle

    def test_every_cache_action_documented(self):
        """Every ``repro cache <action>`` the parser registers (and
        every prune policy / top ordering) is named in the docs."""
        from repro.cli import build_parser
        from repro.harness.cache import PRUNE_POLICIES

        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        cache = subparsers.choices["cache"]
        actions = next(a.choices for a in cache._actions
                       if a.dest == "action")
        assert {"reindex", "top", "stats"} <= set(actions)
        text = "".join(p.read_text() for p in doc_pages())
        for action in actions:
            assert "cache %s" % action in text, \
                "docs never mention 'repro cache %s'" % action
        for policy in PRUNE_POLICIES:
            assert "`--policy %s`" % policy in text \
                or "--policy %s" % policy in text \
                or "`%s`" % policy in text, \
                "docs never mention prune policy %r" % policy

    def test_quota_and_auth_surface_documented(self):
        """The multi-tenant hardening surface — headers, status codes,
        flags, file format, metrics, and where load is measured — must
        all be spelled out on the serving page."""
        text = (DOCS / "serving.md").read_text()
        for needle in ("429", "401", "Retry-After", "X-Repro-Client",
                       "X-Repro-Api-Key", "QuotaExceededError",
                       "AuthError", "--api-keys-file", "--quota-rps",
                       "--quota-burst", "--quota-max-inflight",
                       "token bucket", "perfbench",
                       "repro_quota_rejections_total",
                       "repro_quota_tokens", "repro_quota_inflight"):
            assert needle in text, \
                "serving.md does not document %r" % needle

    def test_metric_families_documented(self):
        """Every metric family the registry knows at import time is
        named in serving.md's /metrics table."""
        import repro.harness.serve      # noqa: F401 — registers series
        from repro.harness.metrics import REGISTRY

        text = (DOCS / "serving.md").read_text()
        for name in REGISTRY.names():
            assert name in text, \
                "serving.md does not document metric family %r" % name

    def test_wire_format_contract_cross_linked(self):
        # The shared disk/HTTP encoding must cite one contract from both
        # consumer docs.
        serving = (DOCS / "serving.md").read_text()
        sweep = (DOCS / "sweep-engine.md").read_text()
        assert "encode_result" in serving and "decode_result" in serving
        assert "encode_result" in sweep and "decode_result" in sweep
        assert "serving.md#the-wire-format" in sweep


#: Harness modules with docstring examples; each must keep at least one.
MODULES_WITH_EXAMPLES = (
    "repro.harness.cache",
    "repro.harness.metrics",
    "repro.harness.quota",
    "repro.harness.runner",
    "repro.harness.serve",
    "repro.harness.sweep",
    "repro.harness.task",
    "repro.harness.variants",
)


def harness_modules():
    """The harness package and every module in it, found on disk."""
    return ["repro.harness"] + sorted(
        "repro.harness." + info.name
        for info in pkgutil.iter_modules(repro.harness.__path__))


class TestHarnessDoctests:
    """The docstring examples of every harness module, a new module's
    included without editing a list."""

    @pytest.mark.parametrize("module_name", harness_modules())
    def test_module_doctests(self, module_name):
        result = doctest.testmod(importlib.import_module(module_name),
                                 verbose=False)
        assert result.failed == 0
        if module_name in MODULES_WITH_EXAMPLES:
            assert result.attempted > 0, \
                "%s lost its doctest examples" % module_name

    def test_modules_with_examples_exist(self):
        assert set(MODULES_WITH_EXAMPLES) <= set(harness_modules())
