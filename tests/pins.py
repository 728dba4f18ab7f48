"""The pinned digests of the reference runs, in one place.

A change that moves one of these changes the program's output: it must be a
defect fix, and it re-pins here alone. The tests import this module, and
.github/workflows/tier1.yml reads the reference suite's file digest and CSV
md5, and the eval sweeps' digests, from it to check the installed package's output.
"""

# turncue suite --plan configs/study.cfg --participants 1 --seed 7 (72 Hz):
REFERENCE_FILES_SHA256 = "d161ff25dc5e04cc40c4e90d5eac672d3cf6acff5f677be2a987ab5961c37f5e"  # its 8 files' bytes, in name order
REFERENCE_RECORDS_SHA256 = "1cc6046d229a1b9debf701dcbe0ec45edc91e3eec62747395a82b57e6c696578"  # _rand.record_digest, read back
REFERENCE_CSV_MD5 = "17c59b2a0edc53cdb35cbeddd4efc2ef"  # its metrics CSV
REFERENCE_RUN_HEADS = 775  # the records at which a field other than tick and t changes

# test_scenario's gaze-lead speaker trials (every method, 30 Hz): the written bytes and the read-back records.
GAZE_LEAD_FILES_SHA256 = "068f498674dde17162ca3fed6c38fa5bf16cc70fea0e90e8942d86a07eb353a3"
GAZE_LEAD_RECORDS_SHA256 = "a5b351e17260cf3a3ac992b666cfca2914afd54d45c5be5dc24d3ca321d2f925"

# test_scenario's slow listener trials (every method, 72 Hz): the records.
SLOW_LISTENER_RECORDS_SHA256 = "3e249f6de50bcebd80a6a87450068c4d07a96bcbab01949740522e1d7ac5378b"

# turncue eval --channel CHANNEL --theta-min 10 --theta-max 130 --steps 12 (default config): its stdout, header included.
EVAL_SWEEP_SHA256 = {
    "env": "8e481e0455b7b69884a7aa4c30be88d4f259b2f7667a3db48bddcda7f09920f9",
    "point": "5759576ffd1a0bff02959206b6bf1701e1ed4928fb01b03ad65668a109217c88",
    "spot": "bc5f94aaf4b98d8aa965cb2455d8d0ef34220af37e6b1e1a8b5bbc2739a6681e",
    "sound": "133bd1cc4e01c23d2022f1005d35bf154602f1f5d88dfb8dd7783b264740ad23",
}
