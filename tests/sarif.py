"""The SARIF 2.1.0 required-property subset the checker's logs must meet.

The oracle the SARIF tests check ``repro.tools.check --format sarif``
output against.
"""


def validate_sarif(log: object) -> list[str]:
    """Check the SARIF 2.1.0 required-property subset; returns problems.

    Not a full schema validation — the invariants GitHub code scanning
    and the SARIF spec both require: version string, runs array, each
    run's ``tool.driver.name``, and per-result ``ruleId`` /
    ``message.text`` / a known ``level``.
    """
    problems: list[str] = []
    if not isinstance(log, dict):
        return ["top level must be an object"]
    if log.get("version") != "2.1.0":
        problems.append("version must be the string '2.1.0'")
    runs = log.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["runs must be a non-empty array"]
    for ri, run in enumerate(runs):
        where = f"runs[{ri}]"
        driver = run.get("tool", {}).get("driver") if isinstance(run, dict) else None
        if not isinstance(driver, dict) or not isinstance(
            driver.get("name"), str
        ):
            problems.append(f"{where}: missing tool.driver.name")
            continue
        rule_ids = {
            rule.get("id")
            for rule in driver.get("rules", [])
            if isinstance(rule, dict)
        }
        for si, result in enumerate(run.get("results", [])):
            rwhere = f"{where}.results[{si}]"
            if not isinstance(result, dict):
                problems.append(f"{rwhere}: not an object")
                continue
            if result.get("ruleId") not in rule_ids:
                problems.append(f"{rwhere}: ruleId not among driver rules")
            if result.get("level") not in ("error", "warning", "note"):
                problems.append(f"{rwhere}: bad level")
            message = result.get("message")
            if not isinstance(message, dict) or not isinstance(
                message.get("text"), str
            ):
                problems.append(f"{rwhere}: missing message.text")
            related = result.get("relatedLocations", [])
            if not isinstance(related, list):
                problems.append(f"{rwhere}: relatedLocations must be an array")
                continue
            for li, rel in enumerate(related):
                lwhere = f"{rwhere}.relatedLocations[{li}]"
                if not isinstance(rel, dict):
                    problems.append(f"{lwhere}: not an object")
                    continue
                rmessage = rel.get("message")
                if not isinstance(rmessage, dict) or not isinstance(
                    rmessage.get("text"), str
                ):
                    problems.append(f"{lwhere}: missing message.text")
                uri = (
                    rel.get("physicalLocation", {})
                    .get("artifactLocation", {})
                    .get("uri")
                    if isinstance(rel.get("physicalLocation"), dict)
                    else None
                )
                if not isinstance(uri, str):
                    problems.append(
                        f"{lwhere}: missing "
                        f"physicalLocation.artifactLocation.uri"
                    )
    return problems
