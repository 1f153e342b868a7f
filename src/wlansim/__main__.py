"""`python -m wlansim`: the wlansim command line, without installing."""
from .cli import main
raise SystemExit(main())
