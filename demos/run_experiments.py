"""Drive the experiment runner on the bundled example configs.

Equivalent command line:

    spinsource demos/configs/*.json --output-dir /tmp/spinsource-demo
"""

import json
import pathlib
import tempfile

from spinsource.runner import run_config_file

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def main():
    with tempfile.TemporaryDirectory(prefix="spinsource-demo-") as tmp:
        out = pathlib.Path(tmp)
        for path in sorted(CONFIG_DIR.glob("*.json")):
            report, written = run_config_file(path, overrides={"output_dir": str(out)})
            status = "pass" if report.passed else "fail"
            print(f"{path.name:32s} -> {status}")
            for failure in report.failures[:3]:
                print(f"    {failure}")
            for p in written:
                print(f"    wrote {p}")

        # reports are plain JSON, stable byte for byte across reruns
        sample = sorted(out.glob("*.report.json"))[0]
        payload = json.loads(sample.read_text())
    print("\nreport keys:", sorted(payload))
    print("toolkit version:", payload["toolkit_version"])


if __name__ == "__main__":
    main()
