#!/usr/bin/env python3
"""pitree custom lint: source idioms the compiler cannot check.

Rules enforcing pieces of the §4.1 discipline that the dynamic checker
(src/analysis/) can only catch when a test happens to execute the bad
path; the lint catches the pattern at review time. All in-source markers
are declared in tools/lint/markers.py — the one registry both this lint
and tools/analyze/concurrency_analyzer.py honor.

  mutex-across-io   A std::lock_guard/std::unique_lock/std::scoped_lock,
                    ShardLock, MutexLock, or ReleasableMutexLock scope in
                    src/ that reaches a storage I/O call
                    (ReadPage/WritePage/Do* wrappers/...) while the guard
                    is held. Engine rule: no mutex is ever held across Env
                    I/O — drop via .Unlock()/.unlock() first. (Guards
                    received as function parameters are the caller's
                    responsibility; the runtime checker covers those.) A
                    slow-path serialization mutex whose purpose is to span
                    its I/O (one checkpoint / one truncation at a time)
                    may be exempted with a
                    `lint:allow-mutex-io -- <reason>` comment on its
                    declaration line or the line directly above it.

  naked-latch       A src/ file calling Latch::Acquire*/TryAcquire*
                    directly must declare its latching discipline with a
                    marker comment: `lint:latch-helper` (acquisition
                    funnels through an audited helper such as AcquireMode)
                    or `lint:allow-naked-latch -- <reason>`. New code that
                    starts latching must be explicitly audited against the
                    §4.1 order before CI lets it in.

  ignored-status    A statement that computes `<call>(...).ok();` and
                    discards the bool. `class [[nodiscard]] Status` makes
                    the compiler reject a dropped Status, but appending
                    .ok() launders it past -Werror; this rule closes that
                    hole.

  unknown-marker    A comment shaped like a `lint:<name>`/`analyze:<name>`
                    marker whose name is not in the tools/lint/markers.py
                    registry (a typo'd marker silently suppresses
                    nothing), or a registered marker missing its required
                    `-- <reason>` / `=<value>` parts.

  raw-thread        A std::thread (or std::jthread) object or construction
                    in src/ outside src/common/background.*. Every engine
                    background loop runs on BackgroundThread, so its
                    lifecycle (start, interruptible waits, stop, join) is
                    written once. std::thread::hardware_concurrency and
                    std::this_thread are fine.

  tsa-escape-audit  A NO_THREAD_SAFETY_ANALYSIS escape in src/ without a
                    `lint:tsa-escape -- <reason>` marker in the lines
                    directly above it. Every hole punched in clang's
                    thread-safety analysis must carry its own audit
                    record.

Usage:
  tools/lint/pitree_lint.py             # lint the repo (src/ + tests/)
  tools/lint/pitree_lint.py --self-test # verify each rule fires on seeded
                                        # violations and stays quiet on the
                                        # legal variants
Exit status: 0 clean, 1 findings, 2 self-test failure.
"""

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from markers import MARKERS  # noqa: E402  (single marker registry)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

# ---------------------------------------------------------------------------
# Shared source mangling
# ---------------------------------------------------------------------------

_STRING = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')
_LINE_COMMENT = re.compile(r'//.*$')


def strip_code_lines(text):
    """Yields (lineno, line) with strings and comments blanked out.

    Keeps line structure so findings carry real line numbers. Block
    comments are blanked across lines.
    """
    in_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if in_block:
            end = line.find('*/')
            if end < 0:
                yield lineno, ''
                continue
            line = ' ' * (end + 2) + line[end + 2:]
            in_block = False
        line = _STRING.sub('""', line)
        while True:
            start = line.find('/*')
            if start < 0:
                break
            end = line.find('*/', start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + ' ' * (end + 2 - start) + line[end + 2:]
        line = _LINE_COMMENT.sub('', line)
        yield lineno, line


class Finding:
    def __init__(self, path, lineno, rule, msg):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.msg = msg

    def __str__(self):
        return f'{self.path}:{self.lineno}: [{self.rule}] {self.msg}'


# ---------------------------------------------------------------------------
# Rule: mutex-across-io
# ---------------------------------------------------------------------------

_GUARD = re.compile(
    r'\b(?:std::(?:lock_guard|unique_lock|scoped_lock)\s*<[^;>]*>'
    r'|ShardLock|MutexLock|ReleasableMutexLock)\s+(\w+)\s*[({]')
_IO = re.compile(
    r'\b(?:ReadPage|WritePage|ReadFileToString|WriteFileAtomic'
    r'|DoRead|DoWrite|DoSync|DoEnsureDurable)\s*\(')
_IO_MEMBER = re.compile(r'->Sync\s*\(')
_ALLOW_MUTEX_IO = re.compile(r'lint:allow-mutex-io\s*--\s*\S')


def check_mutex_across_io(path, text):
    findings = []
    # Markers live in comments, which strip_code_lines blanks — collect the
    # exempted declaration lines from the raw text first.
    allowed = {lineno
               for lineno, line in enumerate(text.splitlines(), start=1)
               if _ALLOW_MUTEX_IO.search(line)}
    guards = []  # [depth_at_construction, varname, held?]
    depth = 0
    for lineno, line in strip_code_lines(text):
        m = _GUARD.search(line)
        if m and lineno not in allowed and (lineno - 1) not in allowed:
            guards.append([depth, m.group(1), True])
        for g in guards:
            if re.search(r'\b%s\s*\.\s*[Uu]nlock\s*\(' % re.escape(g[1]),
                         line):
                g[2] = False
            elif re.search(r'\b%s\s*\.\s*[Ll]ock\s*\(' % re.escape(g[1]),
                           line):
                g[2] = True
        if _IO.search(line) or _IO_MEMBER.search(line):
            for g in guards:
                if g[2]:
                    findings.append(Finding(
                        path, lineno, 'mutex-across-io',
                        f'storage I/O reached while mutex guard '
                        f'`{g[1]}` is held; drop it first '
                        f'(engine rule: no mutex across Env I/O)'))
        depth += line.count('{') - line.count('}')
        guards = [g for g in guards if g[0] < depth or
                  (g[0] == depth and '{' not in line)]
        guards = [g for g in guards if g[0] <= depth]
    return findings


# ---------------------------------------------------------------------------
# Rule: naked-latch
# ---------------------------------------------------------------------------

_ACQUIRE = re.compile(r'\.\s*(?:Try)?Acquire[SUX]\s*\(')
_MARKER = re.compile(r'lint:(?:latch-helper|allow-naked-latch)')
_NAKED_EXEMPT = ('storage/latch.cc', 'analysis/')


def check_naked_latch(path, text):
    rel = str(path)
    if any(e in rel for e in _NAKED_EXEMPT):
        return []
    if _MARKER.search(text):
        return []
    for lineno, line in strip_code_lines(text):
        if _ACQUIRE.search(line):
            return [Finding(
                path, lineno, 'naked-latch',
                'direct Latch::Acquire* call in a file with no '
                '`lint:latch-helper` / `lint:allow-naked-latch -- <reason>` '
                'marker; audit the acquisition order against §4.1 and '
                'annotate the file')]
    return []


# ---------------------------------------------------------------------------
# Rule: ignored-status
# ---------------------------------------------------------------------------

_OK_DISCARD = re.compile(r'^\s*[A-Za-z_][\w.>()\[\]:, -]*\)\s*\.ok\(\)\s*;\s*$')
_OK_USED = re.compile(
    r'\b(?:if|while|return|assert|ASSERT|EXPECT|CHECK)\b|[=!&|?]')


def check_ignored_status(path, text):
    findings = []
    for lineno, line in strip_code_lines(text):
        if _OK_DISCARD.match(line) and not _OK_USED.search(line):
            findings.append(Finding(
                path, lineno, 'ignored-status',
                'result of .ok() discarded; a bare `<call>().ok();` '
                'launders a [[nodiscard]] Status past -Werror — check it '
                'or drop the Status with an explicit (void) cast'))
    return findings


# ---------------------------------------------------------------------------
# Rule: unknown-marker
# ---------------------------------------------------------------------------

_MARKER_SHAPE = re.compile(
    r'\b((?:lint|analyze):[\w-]+)(=[\w-]+)?(\s*--\s*(\S.*))?')


def _blank_strings(text):
    """Yields (lineno, line) with string literals blanked, comments kept.

    Markers live in comments; a marker-shaped token inside a string literal
    (e.g. a test asserting on lint output) is not a marker.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        yield lineno, _STRING.sub('""', line)


def check_unknown_marker(path, text):
    """Marker-shaped comments must name a registered marker, well-formed.

    A typo'd marker (`lint:tsa-escpae`) suppresses nothing and rots
    silently; a registered marker missing its mandatory reason defeats the
    audit-record purpose. tools/lint/markers.py is the registry.
    """
    findings = []
    for lineno, line in _blank_strings(text):
        for m in _MARKER_SHAPE.finditer(line):
            name = m.group(1)
            spec = MARKERS.get(name)
            if spec is None:
                findings.append(Finding(
                    path, lineno, 'unknown-marker',
                    f'`{name}` is not a registered marker (see '
                    f'tools/lint/markers.py); a typo here silently '
                    f'suppresses nothing'))
                continue
            if spec['value_required'] and not m.group(2):
                findings.append(Finding(
                    path, lineno, 'unknown-marker',
                    f'`{name}` requires a value: `{name}=<value> -- '
                    f'<reason>`'))
            if spec['reason_required'] and not m.group(4):
                findings.append(Finding(
                    path, lineno, 'unknown-marker',
                    f'`{name}` requires a reason: `{name} -- <reason>` — '
                    f'every suppression doubles as its own audit record'))
    return findings


# ---------------------------------------------------------------------------
# Rule: raw-thread
# ---------------------------------------------------------------------------

_RAW_THREAD = re.compile(r'\bstd::j?thread\b(?!\s*::)')
_RAW_THREAD_HOME = 'src/common/background.'


def check_raw_thread(path, text):
    if str(path).startswith(_RAW_THREAD_HOME):
        return []
    return [Finding(path, lineno, 'raw-thread',
                    'raw std::thread outside src/common/background.*; run '
                    'background work as a BackgroundThread step so its '
                    'waits stay interruptible and its lifecycle is the '
                    'shared one')
            for lineno, line in strip_code_lines(text)
            if _RAW_THREAD.search(line)]


# ---------------------------------------------------------------------------
# Rule: tsa-escape-audit
# ---------------------------------------------------------------------------

_TSA_ESCAPE_MARKER = re.compile(r'lint:tsa-escape\s*--\s*\S')
_TSA_EXEMPT = ('common/thread_annotations.h',)


def check_tsa_escape_audit(path, text):
    """Every NO_THREAD_SAFETY_ANALYSIS carries a lint:tsa-escape marker.

    The escape disables clang's checking for the whole function; the marker
    (with its mandatory reason) is the audit trail saying why that is safe
    and which checker covers the hole instead. The marker must appear in
    the lines directly above the escape (the comment block over the
    signature).
    """
    rel = str(path)
    if any(e in rel for e in _TSA_EXEMPT):
        return []
    raw = text.splitlines()
    findings = []
    for lineno, line in strip_code_lines(text):
        if 'NO_THREAD_SAFETY_ANALYSIS' not in line:
            continue
        lo = max(0, lineno - 8)
        window = '\n'.join(raw[lo:lineno])
        if not _TSA_ESCAPE_MARKER.search(window):
            findings.append(Finding(
                path, lineno, 'tsa-escape-audit',
                'NO_THREAD_SAFETY_ANALYSIS without a '
                '`lint:tsa-escape -- <reason>` marker in the lines above; '
                'every escape must carry its own audit record'))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_file(path, rel):
    text = path.read_text(encoding='utf-8', errors='replace')
    findings = []
    under_src = str(rel).startswith('src/')
    if under_src and str(rel).endswith('.cc'):
        findings += check_mutex_across_io(rel, text)
        findings += check_naked_latch(rel, text)
    if under_src:
        findings += check_tsa_escape_audit(rel, text)
        findings += check_raw_thread(rel, text)
    findings += check_ignored_status(rel, text)
    findings += check_unknown_marker(rel, text)
    return findings


def lint_tree(roots):
    findings = []
    for root in roots:
        base = REPO_ROOT / root
        if not base.exists():
            continue
        for path in sorted(base.rglob('*')):
            if path.suffix in ('.cc', '.h') and path.is_file():
                findings += lint_file(path, path.relative_to(REPO_ROOT))
    return findings


# ---------------------------------------------------------------------------
# Self test: every rule must fire on its seeded violation and must stay
# quiet on the legal variant. CI runs this before the real scan so a broken
# lint fails loudly instead of silently passing everything.
# ---------------------------------------------------------------------------

_SELF_TESTS = [
    ('mutex-across-io fires on I/O under lock_guard',
     check_mutex_across_io,
     '''Status BufferPool::FetchBad(PageId id, char* buf) {
       std::lock_guard<std::mutex> lk(mu_);
       return ReadPage(id, buf);
     }''', 1),
    ('mutex-across-io fires on WAL sync under ReleasableMutexLock',
     check_mutex_across_io,
     '''Status WalManager::ForceBad() {
       ReleasableMutexLock lk(&mu_);
       return DoSync();
     }''', 1),
    ('mutex-across-io fires on I/O under MutexLock',
     check_mutex_across_io,
     '''Status Checkpointer::WriteBad() {
       MutexLock lk(&checkpoint_mu_);
       return WriteFileAtomic(master_path_, rec);
     }''', 1),
    ('mutex-across-io quiet when guard dropped first',
     check_mutex_across_io,
     '''Status BufferPool::FetchGood(PageId id, char* buf) {
       std::unique_lock<std::mutex> lk(mu_);
       lk.unlock();
       return ReadPage(id, buf);
     }''', 0),
    ('mutex-across-io quiet with an exemption marker',
     check_mutex_across_io,
     '''Status Checkpointer::TakeGood() {
       // lint:allow-mutex-io -- seeded self-test
       std::lock_guard<std::mutex> serialize(checkpoint_mu_);
       return env_->WriteFileAtomic(master_path_, rec);
     }''', 0),
    ('mutex-across-io quiet after guard scope closes',
     check_mutex_across_io,
     '''Status BufferPool::FetchGood2(PageId id, char* buf) {
       {
         std::lock_guard<std::mutex> lk(mu_);
         frame.pin();
       }
       return ReadPage(id, buf);
     }''', 0),
    ('naked-latch fires without a marker',
     check_naked_latch,
     '''void Descend(PageHandle& h) {
       h.latch().AcquireS();
     }''', 1),
    ('naked-latch quiet with an audit marker',
     check_naked_latch,
     '''// lint:allow-naked-latch -- seeded self-test
     void Descend(PageHandle& h) {
       h.latch().AcquireS();
     }''', 0),
    ('ignored-status fires on a bare .ok() statement',
     check_ignored_status,
     '''void Close() {
       db->Commit(txn).ok();
     }''', 1),
    ('ignored-status quiet when the bool is consumed',
     check_ignored_status,
     '''void Close() {
       if (!db->Commit(txn).ok()) return;
       bool committed = db->Commit(txn).ok();
     }''', 0),
    ('unknown-marker fires on a typo\'d marker name',
     check_unknown_marker,
     '''// lint:tsa-escpae -- transposed letters suppress nothing
     void Helper();''', 1),
    ('unknown-marker fires on a missing mandatory reason',
     check_unknown_marker,
     '''// analyze:allow-latch-io
     s = pool->FetchPage(pid, &h);''', 1),
    ('unknown-marker fires on a config marker missing its value',
     check_unknown_marker,
     '''// analyze:latch-rank -- which rank?
     map_latch.AcquireX();''', 1),
    ('unknown-marker quiet on well-formed registered markers',
     check_unknown_marker,
     '''// lint:latch-helper
     // analyze:allow-latch-io -- crabbing child fetch
     // analyze:latch-rank=kSpaceMap -- space-map page latch
     void Helper();''', 0),
    ('unknown-marker quiet on marker-shaped text inside strings',
     check_unknown_marker,
     '''const char* kDoc = "use lint:not-a-marker here";''', 0),
    ('tsa-escape-audit fires on an unmarked escape',
     check_tsa_escape_audit,
     '''void Descend(PageHandle& h) NO_THREAD_SAFETY_ANALYSIS {
       h.latch().AcquireS();
     }''', 1),
    ('tsa-escape-audit quiet with the marker above',
     check_tsa_escape_audit,
     '''// lint:tsa-escape -- crabbing hands latches across calls
     void Descend(PageHandle& h) NO_THREAD_SAFETY_ANALYSIS {
       h.latch().AcquireS();
     }''', 0),
    ('raw-thread fires on a std::thread outside the runner',
     check_raw_thread,
     '''void Service::Start() {
       std::thread t([this] { Loop(); });
       t.detach();
     }''', 1),
    ('raw-thread quiet on hardware_concurrency and this_thread',
     check_raw_thread,
     '''size_t Shards() {
       size_t hw = std::thread::hardware_concurrency();
       std::this_thread::yield();
       return hw;
     }''', 0),
    ('raw-thread quiet inside the runner itself',
     check_raw_thread,
     '''void BackgroundThread::Start(std::chrono::microseconds first_wait) {
       thread_ = std::thread([this, first_wait] { Run(first_wait); });
     }''', 0, 'src/common/background.cc'),
]


def self_test():
    failures = 0
    for name, rule, snippet, expected, *path in _SELF_TESTS:
        got = rule(pathlib.PurePosixPath(*(path or ['src/self_test.cc'])),
                   snippet)
        if len(got) != expected:
            failures += 1
            print(f'SELF-TEST FAIL: {name}: expected {expected} finding(s), '
                  f'got {len(got)}', file=sys.stderr)
            for f in got:
                print(f'  {f}', file=sys.stderr)
    if failures:
        return 2
    print(f'self-test OK: {len(_SELF_TESTS)} cases')
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--self-test', action='store_true',
                    help='run the embedded rule tests and exit')
    ap.add_argument('paths', nargs='*', default=['src', 'tests'],
                    help='repo-relative roots to lint (default: src tests)')
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    findings = lint_tree(args.paths)
    for f in findings:
        print(f)
    if findings:
        print(f'{len(findings)} lint finding(s)', file=sys.stderr)
        return 1
    print('lint clean')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
