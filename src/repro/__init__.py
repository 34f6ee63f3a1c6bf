"""repro — reproduction of "Compact Access Control Labeling for Efficient
Secure XML Query Evaluation" (Zhang, Zhang, Salem, Zhuo; ICDE 2005).

Public API overview
-------------------

Documents
    :func:`repro.parse` / :func:`repro.serialize` — XML text ↔ trees;
    :class:`repro.Document` — flattened document-order arrays;
    :func:`repro.xmark.generate_document` — XMark-like synthetic data.

Access control
    :class:`repro.AccessMatrix` — the accessibility function;
    :class:`repro.Policy` — rule-based specification with propagation;
    :mod:`repro.acl.synthetic` / :mod:`repro.acl.surrogates` — workloads.

DOL (the paper's contribution)
    :class:`repro.DOL` — compact document-ordered labeling;
    :class:`repro.Codebook` — dictionary-compressed access control lists;
    :class:`repro.DOLUpdater` — accessibility and structural updates;
    :func:`repro.build_dol_streaming` — one-pass construction from XML text.

Baseline
    :class:`repro.CAM` — minimal Compressed Accessibility Map, the size
    baseline the DOL is compared against (Figs. 4a/4b).

Storage & querying
    :class:`repro.NoKStore` — block storage with embedded access codes;
    :class:`repro.QueryEngine` — (secure) twig query evaluation;
    :class:`repro.Planner` / :class:`repro.PhysicalPlan` — the Volcano
    operator pipeline queries compile into;
    :data:`repro.CHO` / :data:`repro.VIEW` — secure semantics.

Concurrent serving
    :class:`repro.StoreSnapshot` — immutable epoch-stamped read views
    (``store.snapshot()``) giving queries snapshot isolation under a
    concurrent Section 3.4 update stream;
    :class:`repro.PlanCache` — shared compiled-plan artifacts;
    :class:`repro.ClassDirectory` / :func:`repro.normalize_subjects` —
    canonicalize subject sets to accessibility-equivalence classes, the
    key every subject-scoped cache uses;
    :class:`repro.ResultCache` — complete answers per (epoch, query,
    class), opt-in per call;
    :class:`repro.QueryService` / :class:`repro.ServiceConfig` — the
    bounded-pool serving layer behind ``repro-dol serve``.
"""

from repro.acl.model import AccessMatrix, SubjectRegistry
from repro.acl.policy import AccessRule, Policy
from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.cam.cam import CAM
from repro.dol.codebook import Codebook
from repro.dol.labeling import DOL
from repro.dol.multimode import MultiModeDOL
from repro.dol.stream import build_dol_streaming
from repro.dol.updates import DOLUpdater
from repro.errors import ReproError
from repro.exec.plancache import PlanCache
from repro.exec.planner import PhysicalPlan, Planner
from repro.exec.resultcache import ResultCache
from repro.labeling import ClassDirectory, normalize_subjects
from repro.secure.dissemination import filter_xml
from repro.secure.secured import SecuredDocument
from repro.nok.engine import QueryEngine, QueryResult
from repro.nok.pattern import PatternTree, parse_query
from repro.secure.semantics import CHO, VIEW
from repro.server.service import QueryService, ServiceConfig
from repro.storage.nokstore import NoKStore
from repro.storage.snapshot import StoreSnapshot
from repro.xmltree.document import Document
from repro.xmltree.node import Node
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize

__version__ = "1.0.0"

__all__ = [
    "CAM",
    "CHO",
    "VIEW",
    "AccessMatrix",
    "AccessRule",
    "ClassDirectory",
    "Codebook",
    "DOL",
    "DOLUpdater",
    "MultiModeDOL",
    "Document",
    "Node",
    "NoKStore",
    "PatternTree",
    "PhysicalPlan",
    "PlanCache",
    "Planner",
    "Policy",
    "QueryEngine",
    "QueryResult",
    "QueryService",
    "ResultCache",
    "SecuredDocument",
    "ReproError",
    "ServiceConfig",
    "StoreSnapshot",
    "SubjectRegistry",
    "SyntheticACLConfig",
    "__version__",
    "build_dol_streaming",
    "filter_xml",
    "generate_synthetic_acl",
    "normalize_subjects",
    "parse",
    "parse_query",
    "serialize",
]
