"""Write this recovery fixture: ``PYTHONPATH=src python <this file>``.  A forked child
writes the state files and dies by ``os._exit`` without ``close()`` (the WAL tail after
the checkpoint survives); the parent recovers a copy and records it in expected.json."""

import json
import os
import shutil
import tempfile
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem

HERE = Path(__file__).resolve().parent
STATE_FILES = ("wal.log", "snapshot.json", "cold_store.db")
LEFTOVERS = ("lock", "cold_store.db-journal")  # not state: uncommitted journal


def config(data_dir):
    return SystemConfig(seed=0, data_dir=data_dir, pending_memory_limit=1,
                        cold_store="sqlite", snapshot_interval=0)


def pair_sql(traveler, companion):
    return (f"SELECT '{traveler}', fno INTO ANSWER Reservation WHERE fno IN "
            f"(SELECT fno FROM Flights WHERE dest = 'Paris') AND "
            f"('{companion}', fno) IN ANSWER Reservation CHOOSE 1")


def observe(system):
    return {"pending_queries": [list(row) for row in
                                system.query("SELECT * FROM _pending_queries").rows],
            "pending_ids": sorted(query.query_id for query in system.pending_queries()),
            "reservation": sorted(list(row) for row in system.answers("Reservation"))}


if __name__ == "__main__":
    for name in STATE_FILES + LEFTOVERS:
        (HERE / name).unlink(missing_ok=True)
    if os.fork() == 0:
        system = YoutopiaSystem(config=config(HERE))
        system.execute_script("CREATE TABLE Flights (fno INTEGER PRIMARY KEY, dest TEXT);"
                              "INSERT INTO Flights VALUES (122, 'Paris'), (134, 'Rome')")
        system.submit_entangled(pair_sql("Kramer", "Jerry"), owner="Kramer")
        system.submit_entangled(pair_sql("Jerry", "Kramer"), owner="Jerry")
        system.cancel(system.submit_entangled(pair_sql("Elaine", "Puddy")).query_id)
        system.checkpoint()
        system.submit_entangled(pair_sql("George", "Susan"), owner="George")
        system.submit_entangled(pair_sql("Newman", "Kramer"), owner="Newman")  # George spills
        system.execute("INSERT INTO Flights VALUES (136, 'Paris')")
        os._exit(0)
    os.wait()
    for name in LEFTOVERS:
        (HERE / name).unlink(missing_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in STATE_FILES:
            shutil.copy(HERE / name, scratch)
        with YoutopiaSystem(config=config(Path(scratch))) as recovered:
            expected = observe(recovered)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
