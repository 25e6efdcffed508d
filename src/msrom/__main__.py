from .config import main

raise SystemExit(main())
